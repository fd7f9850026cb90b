(** Name resolution: IRDL ASTs to resolved dialects.

    Resolution classifies every surface reference (paper §4.2): builtin
    constraint constructors, builtin types, constraint variables, parametric
    alias parameters, then the current dialect's own types, attributes,
    aliases, enums, [Constraint] and [TypeOrAttrParam] definitions, and
    finally cross-dialect references through their [dialect.name] spelling.
    Aliases are expanded here (with cycle detection), so downstream passes
    never see them. *)

open Irdl_support
module C = Constraint_expr

module SMap = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* Resolved representation                                             *)
(* ------------------------------------------------------------------ *)

type slot = { s_name : string; s_constraint : C.t; s_loc : Loc.t }

type region = {
  reg_name : string;
  reg_args : slot list;
  reg_terminator : string option;  (** fully qualified op name *)
}

type op = {
  op_name : string;  (** mnemonic, unqualified *)
  op_summary : string option;
  op_vars : C.var list;
  op_operands : slot list;
  op_results : slot list;
  op_attributes : slot list;
  op_regions : region list;
  op_successors : string list option;
  op_format : string option;
  op_cpp : string list;
  op_loc : Loc.t;
}

(** A resolved type or attribute definition (they are isomorphic, §4.4). *)
type typedef = {
  td_name : string;
  td_params : slot list;
  td_summary : string option;
  td_cpp : string list;
  td_loc : Loc.t;
}

type dialect = {
  dl_name : string;
  dl_types : typedef list;
  dl_attrs : typedef list;
  dl_ops : op list;
  dl_enums : Ast.enum_def list;
  dl_ast : Ast.dialect;  (** kept for introspection tooling and analysis *)
}

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)
(* ------------------------------------------------------------------ *)

type scope = {
  dialect_name : string;
  ty_defs : Ast.type_def SMap.t;
  at_defs : Ast.attr_def SMap.t;
  alias_defs : Ast.alias_def SMap.t;
  enum_defs : Ast.enum_def SMap.t;
  constraint_defs : Ast.constraint_def SMap.t;
  param_defs : Ast.param_def SMap.t;
  op_names : unit SMap.t;  (** operations defined by this dialect *)
  vars : C.var SMap.t;  (** in-scope constraint variables *)
  subst : C.t SMap.t;  (** parametric-alias argument substitution *)
  expanding : string list;  (** alias expansion stack, for cycle detection *)
}

(* A duplicate definition is an error on [engine]; the first one is
   kept. *)
let scope_of_dialect ~engine (d : Ast.dialect) =
  let add_named name v map loc what =
    if SMap.mem name map then begin
      Diag.Engine.emit engine
        (Diag.error ~loc "duplicate %s definition '%s' in dialect %s" what
           name d.d_name);
      map
    end
    else SMap.add name v map
  in
  List.fold_left
    (fun sc item ->
      match (item : Ast.item) with
      | Ast.I_type t ->
          { sc with ty_defs = add_named t.t_name t sc.ty_defs t.t_loc "type" }
      | Ast.I_attr a ->
          {
            sc with
            at_defs = add_named a.a_name a sc.at_defs a.a_loc "attribute";
          }
      | Ast.I_alias a ->
          {
            sc with
            alias_defs = add_named a.al_name a sc.alias_defs a.al_loc "alias";
          }
      | Ast.I_enum e ->
          { sc with enum_defs = add_named e.e_name e sc.enum_defs e.e_loc "enum" }
      | Ast.I_constraint c ->
          {
            sc with
            constraint_defs =
              add_named c.c_name c sc.constraint_defs c.c_loc "constraint";
          }
      | Ast.I_param tp ->
          {
            sc with
            param_defs =
              add_named tp.tp_name tp sc.param_defs tp.tp_loc
                "TypeOrAttrParam";
          }
      | Ast.I_op o -> { sc with op_names = SMap.add o.o_name () sc.op_names })
    {
      dialect_name = d.d_name;
      ty_defs = SMap.empty;
      at_defs = SMap.empty;
      alias_defs = SMap.empty;
      enum_defs = SMap.empty;
      constraint_defs = SMap.empty;
      param_defs = SMap.empty;
      op_names = SMap.empty;
      vars = SMap.empty;
      subst = SMap.empty;
      expanding = [];
    }
    d.d_items

(* ------------------------------------------------------------------ *)
(* Builtin names                                                       *)
(* ------------------------------------------------------------------ *)

let int_kind_of_name name : C.int_kind option =
  let of_prefix prefix signedness =
    let plen = String.length prefix in
    let slen = String.length name in
    if
      slen > plen + 2
      && String.sub name 0 plen = prefix
      && String.sub name (slen - 2) 2 = "_t"
    then
      let digits = String.sub name plen (slen - plen - 2) in
      if digits <> "" && String.for_all Sbuf.is_digit digits then
        match int_of_string_opt digits with
        | Some width -> Some { C.ik_width = width; ik_signedness = signedness }
        | None -> None (* absurdly wide: not an integer kind *)
      else None
    else None
  in
  match of_prefix "uint" Irdl_ir.Attr.Unsigned with
  | Some k -> Some k
  | None -> of_prefix "int" Irdl_ir.Attr.Signed

(** [iN_attr] / [f32_attr]-style builtin value-attribute constraints. *)
let value_attr_of_name name : C.t option =
  match name with
  | "f16_attr" -> Some (C.Float_param (Some Irdl_ir.Attr.F16))
  | "f32_attr" -> Some (C.Float_param (Some Irdl_ir.Attr.F32))
  | "f64_attr" -> Some (C.Float_param (Some Irdl_ir.Attr.F64))
  | "bf16_attr" -> Some (C.Float_param (Some Irdl_ir.Attr.BF16))
  | "float_attr" -> Some (C.Float_param None)
  | _ ->
      let slen = String.length name in
      if
        slen > 6
        && name.[0] = 'i'
        && String.sub name (slen - 5) 5 = "_attr"
        && String.for_all Sbuf.is_digit (String.sub name 1 (slen - 6))
      then
        match int_of_string_opt (String.sub name 1 (slen - 6)) with
        | Some width ->
            Some
              (C.Int_param
                 { C.ik_width = width; ik_signedness = Irdl_ir.Attr.Signless })
        | None -> None (* absurdly wide: not a value-attr constraint *)
      else None

let split_dots s = String.split_on_char '.' s

(* ------------------------------------------------------------------ *)
(* Constraint resolution                                               *)
(* ------------------------------------------------------------------ *)

let arity_error ~loc name expected got =
  Diag.raise_error ~loc "%s expects %s, got %d arguments" name expected got

let rec resolve_cexpr (sc : scope) (e : Ast.cexpr) : C.t =
  match e with
  | Ast.C_int { value; kind; loc } ->
      let ty =
        match kind with
        | None -> Irdl_ir.Attr.i64
        | Some k -> (
            match int_kind_of_name k with
            | Some { C.ik_width; ik_signedness } ->
                Irdl_ir.Attr.integer ~signedness:ik_signedness ik_width
            | None -> Diag.raise_error ~loc "unknown integer kind '%s'" k)
      in
      C.Eq (Irdl_ir.Attr.int ~ty value)
  | Ast.C_string { value; _ } -> C.Eq (Irdl_ir.Attr.string value)
  | Ast.C_list { elems; _ } -> C.Array_exact (List.map (resolve_cexpr sc) elems)
  | Ast.C_ref { prefix; name; args; loc } -> (
      match split_dots name with
      | [ single ] -> resolve_single sc ~prefix ~name:single ~args ~loc
      | [ a; b ] -> resolve_dotted2 sc ~prefix ~a ~b ~args ~loc
      | [ d; e'; c ] ->
          (* dialect-qualified enum constructor *)
          if args <> None then
            Diag.raise_error ~loc "enum constructor %s takes no arguments" name;
          C.Eq (Irdl_ir.Attr.enum ~dialect:d ~enum:e' c)
      | _ -> Diag.raise_error ~loc "cannot resolve reference '%s'" name)

and resolve_args sc args = Option.map (List.map (resolve_cexpr sc)) args

and resolve_single sc ~prefix ~name ~args ~loc : C.t =
  let args' () = resolve_args sc args in
  let expect_n n k =
    match args with
    | Some l when List.length l = n -> k (List.map (resolve_cexpr sc) l)
    | Some l -> arity_error ~loc name (string_of_int n) (List.length l)
    | None -> arity_error ~loc name (string_of_int n) 0
  in
  let expect_some k =
    match args with
    | Some l when l <> [] -> k (List.map (resolve_cexpr sc) l)
    | _ -> arity_error ~loc name "at least one" 0
  in
  let no_args c =
    match args with
    | None -> c
    | Some l -> arity_error ~loc name "no" (List.length l)
  in
  (* 1. Substituted parametric-alias arguments, then constraint variables:
     innermost scopes first. *)
  match SMap.find_opt name sc.subst with
  | Some c -> no_args c
  | None -> (
      match SMap.find_opt name sc.vars with
      | Some v -> no_args (C.Var v)
      | None -> (
          (* 2. Builtin constructors (Figure 2). *)
          match name with
          | "AnyType" -> no_args C.Any_type
          | "AnyAttr" -> no_args C.Any_attr
          | "AnyParam" -> no_args C.Any
          | "AnyOf" -> expect_some (fun cs -> C.Any_of cs)
          | "And" -> expect_some (fun cs -> C.And cs)
          | "Not" -> expect_n 1 (fun cs -> C.Not (List.hd cs))
          | "Variadic" -> expect_n 1 (fun cs -> C.Variadic (List.hd cs))
          | "Optional" -> expect_n 1 (fun cs -> C.Optional (List.hd cs))
          | "array" -> (
              match args' () with
              | None -> C.Array_any
              | Some [ c ] -> C.Array_of c
              | Some l -> arity_error ~loc name "zero or one" (List.length l))
          | "string" -> no_args C.String_param
          | "symbol" -> no_args C.Symbol_param
          | "bool" -> no_args C.Bool_param
          | "location" -> no_args C.Location_param
          | "type_id" -> no_args C.Type_id_param
          | "float" -> no_args (C.Float_param None)
          | _ -> (
              match int_kind_of_name name with
              | Some kind -> no_args (C.Int_param kind)
              | None -> (
                  match value_attr_of_name name with
                  | Some c -> no_args c
                  | None -> (
                      match Irdl_ir.Parser.builtin_ty_of_ident name with
                      | Some ty -> no_args (C.Eq (Irdl_ir.Attr.typ ty))
                      | None -> resolve_local sc ~prefix ~name ~args ~loc)))))

(** Names defined by the current dialect. *)
and resolve_local sc ~prefix ~name ~args ~loc : C.t =
  let params = resolve_args sc args in
  match SMap.find_opt name sc.ty_defs with
  | Some td when prefix <> Ast.P_attr ->
      check_def_arity ~loc ~what:"type" ~name (List.length td.t_params) params;
      C.Base_type { dialect = sc.dialect_name; name; params }
  | _ -> (
      match SMap.find_opt name sc.at_defs with
      | Some ad when prefix <> Ast.P_type ->
          check_def_arity ~loc ~what:"attribute" ~name
            (List.length ad.a_params) params;
          C.Base_attr { dialect = sc.dialect_name; name; params }
      | _ -> (
          match SMap.find_opt name sc.alias_defs with
          | Some alias -> expand_alias sc alias ~params ~loc
          | None -> (
              match SMap.find_opt name sc.constraint_defs with
              | Some cd ->
                  if params <> None then
                    Diag.raise_error ~loc
                      "constraint '%s' takes no arguments" name;
                  let base = resolve_cexpr sc cd.c_base in
                  if cd.c_cpp_constraints = [] then base
                  else
                    C.Native
                      { name; base; snippets = cd.c_cpp_constraints }
              | None -> (
                  match SMap.find_opt name sc.param_defs with
                  | Some tp ->
                      if params <> None then
                        Diag.raise_error ~loc
                          "TypeOrAttrParam '%s' takes no arguments" name;
                      C.Native_param { name; class_name = tp.tp_class_name }
                  | None -> (
                      match SMap.find_opt name sc.enum_defs with
                      | Some _ ->
                          if params <> None then
                            Diag.raise_error ~loc
                              "enum '%s' takes no arguments" name;
                          C.Enum_param
                            { dialect = sc.dialect_name; enum = name }
                      | None ->
                          Diag.raise_error ~loc
                            "unknown name '%s' in dialect %s" name
                            sc.dialect_name)))))

and check_def_arity ~loc ~what ~name expected params =
  match params with
  | None -> ()
  | Some ps ->
      if List.length ps <> expected then
        Diag.raise_error ~loc "%s '%s' expects %d parameters, got %d" what
          name expected (List.length ps)

and expand_alias sc (alias : Ast.alias_def) ~params ~loc : C.t =
  if List.mem alias.al_name sc.expanding then
    Diag.raise_error ~loc "alias '%s' is recursively defined" alias.al_name;
  let subst =
    match (alias.al_params, params) with
    | [], None -> SMap.empty
    | [], Some l ->
        arity_error ~loc alias.al_name "no" (List.length l)
    | formals, Some actuals when List.length formals = List.length actuals ->
        List.fold_left2
          (fun m f a -> SMap.add f a m)
          SMap.empty formals actuals
    | formals, Some actuals ->
        arity_error ~loc alias.al_name
          (string_of_int (List.length formals))
          (List.length actuals)
    | formals, None ->
        arity_error ~loc alias.al_name (string_of_int (List.length formals)) 0
  in
  resolve_cexpr
    { sc with subst; expanding = alias.al_name :: sc.expanding;
      (* Alias bodies are closed w.r.t. constraint variables. *)
      vars = SMap.empty }
    alias.al_body

and resolve_dotted2 sc ~prefix ~a ~b ~args ~loc : C.t =
  (* [a.b] is an enum constructor if [a] names a local enum, a local
     reference if [a] is the current dialect, a builtin spelling if [a] is
     the builtin/std namespace, and a cross-dialect reference otherwise. *)
  match SMap.find_opt a sc.enum_defs with
  | Some e ->
      if args <> None then
        Diag.raise_error ~loc "enum constructor %s.%s takes no arguments" a b;
      if not (List.mem b e.e_cases) then
        Diag.raise_error ~loc "enum %s has no constructor %s" a b;
      C.Eq (Irdl_ir.Attr.enum ~dialect:sc.dialect_name ~enum:a b)
  | None ->
      if a = sc.dialect_name then resolve_local sc ~prefix ~name:b ~args ~loc
      else if a = "builtin" || a = "std" then (
        match Irdl_ir.Parser.builtin_ty_of_ident b with
        | Some ty ->
            if args <> None then
              Diag.raise_error ~loc "builtin type %s takes no arguments" b;
            C.Eq (Irdl_ir.Attr.typ ty)
        | None -> resolve_external sc ~prefix ~dialect:a ~name:b ~args ~loc)
      else resolve_external sc ~prefix ~dialect:a ~name:b ~args ~loc

and resolve_external sc ~prefix ~dialect ~name ~args ~loc : C.t =
  ignore loc;
  let params = resolve_args sc args in
  (* Cross-dialect references cannot be arity-checked locally; the IR
     verifier checks instantiations against the registered definition. *)
  match prefix with
  | Ast.P_attr -> C.Base_attr { dialect; name; params }
  | Ast.P_type | Ast.P_bare -> C.Base_type { dialect; name; params }

(* ------------------------------------------------------------------ *)
(* Definition resolution                                               *)
(* ------------------------------------------------------------------ *)

let rec has_nested_variadic = function
  | C.Variadic c | C.Optional c -> has_nested c
  | c -> has_nested c

and has_nested = function
  | C.Variadic _ | C.Optional _ -> true
  | C.Any_of cs | C.And cs | C.Array_exact cs -> List.exists has_nested cs
  | C.Not c | C.Array_of c -> has_nested c
  | C.Base_type { params = Some ps; _ } | C.Base_attr { params = Some ps; _ }
    ->
      List.exists has_nested ps
  | C.Native { base; _ } -> has_nested base
  | C.Var { v_constraint; _ } -> has_nested v_constraint
  | _ -> false

let resolve_slot sc ~allow_variadic (p : Ast.param) : slot =
  let c = resolve_cexpr sc p.p_constraint in
  (match c with
  | C.Variadic _ | C.Optional _ when not allow_variadic ->
      Diag.raise_error ~loc:p.p_loc
        "Variadic/Optional is not allowed on '%s' in this position" p.p_name
  | _ -> ());
  if has_nested_variadic c then
    Diag.raise_error ~loc:p.p_loc
      "Variadic/Optional may only appear as a top-level constraint (on '%s')"
      p.p_name;
  { s_name = p.p_name; s_constraint = c; s_loc = p.p_loc }

let resolve_typedef sc ~what:_ ~name ~params ~summary ~cpp ~loc : typedef =
  let td_params = List.map (resolve_slot sc ~allow_variadic:false) params in
  { td_name = name; td_params; td_summary = summary; td_cpp = cpp; td_loc = loc }

(** Qualify an operation reference (e.g. a region terminator): names of
    operations defined by the current dialect — dotted or not — get the
    dialect prefix; other dotted names are taken as already qualified. *)
let qualify sc name =
  if SMap.mem name sc.op_names then sc.dialect_name ^ "." ^ name
  else if String.contains name '.' then name
  else sc.dialect_name ^ "." ^ name

let resolve_op sc (o : Ast.op_def) : op =
  (* Constraint variables come into scope left to right; a variable's own
     constraint may refer to previously declared variables. *)
  let sc, vars =
    List.fold_left
      (fun (sc, acc) (p : Ast.param) ->
        if SMap.mem p.p_name sc.vars then
          Diag.raise_error ~loc:p.p_loc
            "duplicate constraint variable '%s' in operation %s" p.p_name
            o.o_name;
        let c = resolve_cexpr sc p.p_constraint in
        let v = { C.v_name = p.p_name; v_constraint = c } in
        ({ sc with vars = SMap.add p.p_name v sc.vars }, v :: acc))
      (sc, []) o.o_constraint_vars
  in
  let op_vars = List.rev vars in
  let op_operands = List.map (resolve_slot sc ~allow_variadic:true) o.o_operands in
  let op_results = List.map (resolve_slot sc ~allow_variadic:true) o.o_results in
  (* Attributes may be Optional (meaning: may be absent) but not Variadic. *)
  let op_attributes =
    List.map
      (fun (p : Ast.param) ->
        let s = resolve_slot sc ~allow_variadic:true p in
        match s.s_constraint with
        | C.Variadic _ ->
            Diag.raise_error ~loc:p.p_loc "attribute '%s' cannot be Variadic"
              s.s_name
        | _ -> s)
      o.o_attributes
  in
  let op_regions =
    List.map
      (fun (r : Ast.region_def) ->
        {
          reg_name = r.r_name;
          reg_args = List.map (resolve_slot sc ~allow_variadic:true) r.r_args;
          reg_terminator = Option.map (qualify sc) r.r_terminator;
        })
      o.o_regions
  in
  {
    op_name = o.o_name;
    op_summary = o.o_summary;
    op_vars;
    op_operands;
    op_results;
    op_attributes;
    op_regions;
    op_successors = o.o_successors;
    op_format = o.o_format;
    op_cpp = o.o_cpp_constraints;
    op_loc = o.o_loc;
  }

(** Resolve a whole dialect definition. Every error (duplicate
    definitions, unresolvable references, misplaced variadics) is emitted
    and resolution continues with the next definition, so one run reports
    all errors. Definitions that fail to resolve are dropped; the result
    is [Error] (already emitted) only when the dialect scope itself could
    not be built. Without [engine], the first error is returned. *)
let resolve_dialect ?engine (d : Ast.dialect) : (dialect, Diag.t) result =
  let engine, result = Diag.Engine.fail_fast engine in
  let resolved =
    Diag.protect_any ~loc:d.d_loc (fun () ->
        let sc = scope_of_dialect ~engine d in
        (* An error drops just this definition. *)
        let keep ~loc f x =
          match Diag.protect_any ~loc (fun () -> f x) with
          | Ok v -> Some v
          | Error diag ->
              Diag.Engine.emit engine diag;
              None
        in
        let dl_types =
          List.filter_map
            (fun (t : Ast.type_def) ->
              keep ~loc:t.t_loc
                (fun t ->
                  let sc = { sc with vars = SMap.empty } in
                  resolve_typedef sc ~what:"type" ~name:t.Ast.t_name
                    ~params:t.t_params ~summary:t.t_summary
                    ~cpp:t.t_cpp_constraints ~loc:t.t_loc)
                t)
            (Ast.types d)
        in
        let dl_attrs =
          List.filter_map
            (fun (a : Ast.attr_def) ->
              keep ~loc:a.a_loc
                (fun a ->
                  resolve_typedef sc ~what:"attribute" ~name:a.Ast.a_name
                    ~params:a.a_params ~summary:a.a_summary
                    ~cpp:a.a_cpp_constraints ~loc:a.a_loc)
                a)
            (Ast.attrs d)
        in
        let seen_ops = Hashtbl.create 16 in
        let dl_ops =
          List.filter_map
            (fun (o : Ast.op_def) ->
              keep ~loc:o.o_loc
                (fun o ->
                  if Hashtbl.mem seen_ops o.Ast.o_name then
                    Diag.raise_error ~loc:o.o_loc
                      "duplicate operation '%s' in dialect %s" o.o_name
                      d.d_name;
                  Hashtbl.add seen_ops o.o_name ();
                  resolve_op sc o)
                o)
            (Ast.ops d)
        in
        {
          dl_name = d.d_name;
          dl_types;
          dl_attrs;
          dl_ops;
          dl_enums = Ast.enums d;
          dl_ast = d;
        })
  in
  (match resolved with
  | Error diag -> Diag.Engine.emit engine diag
  | Ok _ -> ());
  result resolved
