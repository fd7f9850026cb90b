(* Resolved dialects as generic [irdl.*] ops, and back; the layout is in
   the interface. *)

open Irdl_support
module Attr = Irdl_ir.Attr
module Graph = Irdl_ir.Graph
module C = Constraint_expr

(* ---------------- lowering ---------------- *)

let irdl name params = Attr.dyn_attr ~dialect:"irdl" ~name params
let str = Attr.string

let loc_attr (loc : Loc.t) =
  if Loc.is_unknown loc then Attr.location ~file:"" ~line:0 ~col:0
  else
    let p = loc.start_pos in
    Attr.location ~file:p.file ~line:p.line ~col:p.col

let rec lower_c (c : C.t) =
  let cs l = List.map lower_c l in
  let base dialect name params =
    str dialect :: str name
    :: (match params with None -> [] | Some ps -> [ Attr.array (cs ps) ])
  in
  match c with
  | C.Any -> irdl "any" []
  | C.Any_type -> irdl "any_type" []
  | C.Any_attr -> irdl "any_attr" []
  | C.Eq a -> irdl "eq" [ a ]
  | C.Base_type { dialect; name; params } ->
      irdl "base_type" (base dialect name params)
  | C.Base_attr { dialect; name; params } ->
      irdl "base_attr" (base dialect name params)
  | C.Int_param { ik_width; ik_signedness } ->
      irdl "int_param"
        [ Attr.typ (Attr.integer ~signedness:ik_signedness ik_width) ]
  | C.Float_param None -> irdl "float_param" []
  | C.Float_param (Some k) ->
      irdl "float_param" [ Attr.typ (Attr.intern_ty (Attr.Float k)) ]
  | C.String_param -> irdl "string_param" []
  | C.Symbol_param -> irdl "symbol_param" []
  | C.Bool_param -> irdl "bool_param" []
  | C.Location_param -> irdl "location_param" []
  | C.Type_id_param -> irdl "type_id_param" []
  | C.Enum_param { dialect; enum } ->
      irdl "enum_param" [ str dialect; str enum ]
  | C.Array_any -> irdl "array_any" []
  | C.Array_of c -> irdl "array_of" [ lower_c c ]
  | C.Array_exact l -> irdl "array_exact" (cs l)
  | C.Any_of l -> irdl "any_of" (cs l)
  | C.And l -> irdl "and" (cs l)
  | C.Not c -> irdl "not" [ lower_c c ]
  | C.Var v -> lower_var v
  | C.Native { name; base; snippets } ->
      irdl "native"
        [ str name; lower_c base; Attr.array (List.map str snippets) ]
  | C.Native_param { name; class_name } ->
      irdl "native_param" [ str name; str class_name ]
  | C.Variadic c -> irdl "variadic" [ lower_c c ]
  | C.Optional c -> irdl "optional" [ lower_c c ]

and lower_var (v : C.var) = irdl "var" [ str v.v_name; lower_c v.v_constraint ]

(* A slot's location is kept relative to its definition's when both are
   known and in one file, so that equal slots of different definitions are
   one attribute. *)
let lower_slot (def : Loc.t) (s : Resolve.slot) =
  let p = s.s_loc.start_pos and d = def.start_pos in
  let int = Attr.int_of ~ty:Attr.i64 in
  let at =
    if Loc.is_unknown def || Loc.is_unknown s.s_loc || p.file <> d.file then
      loc_attr s.s_loc
    else irdl "at" [ int (p.line - d.line); int p.col ]
  in
  irdl "slot" [ str s.s_name; lower_c s.s_constraint; at ]

let lower_region def (r : Resolve.region) =
  irdl "region"
    (str r.reg_name
    :: Attr.array (List.map (lower_slot def) r.reg_args)
    :: Option.to_list (Option.map str r.reg_terminator))

let lower_enum (e : Ast.enum_def) =
  irdl "enum_def"
    [ str e.e_name; Attr.array (List.map str e.e_cases); loc_attr e.e_loc ]

(* Op attributes: an absent option or an empty list is left out. *)
let opt key f = function None -> [] | Some x -> [ (key, f x) ]
let list key f = function [] -> [] | xs -> [ (key, Attr.array (List.map f xs)) ]

let lower_typedef kind (td : Resolve.typedef) =
  Graph.Op.create ~loc:td.td_loc kind
    ~attrs:
      (List.concat
         [
           [ ("name", str td.td_name) ];
           opt "summary" str td.td_summary;
           list "params" (lower_slot td.td_loc) td.td_params;
           list "cpp" str td.td_cpp;
         ])

let lower_op (o : Resolve.op) =
  Graph.Op.create ~loc:o.op_loc "irdl.operation"
    ~attrs:
      (List.concat
         [
           [ ("name", str o.op_name) ];
           opt "summary" str o.op_summary;
           list "vars" lower_var o.op_vars;
           list "operands" (lower_slot o.op_loc) o.op_operands;
           list "results" (lower_slot o.op_loc) o.op_results;
           list "attributes" (lower_slot o.op_loc) o.op_attributes;
           list "regions" (lower_region o.op_loc) o.op_regions;
           opt "successors" (fun ss -> Attr.array (List.map str ss))
             o.op_successors;
           opt "format" str o.op_format;
           list "cpp" str o.op_cpp;
         ])

let lower (dl : Resolve.dialect) =
  let body = Graph.Block.create () in
  List.iter (Graph.Block.append body)
    (List.map (lower_typedef "irdl.type") dl.dl_types
    @ List.map (lower_typedef "irdl.attribute") dl.dl_attrs
    @ List.map lower_op dl.dl_ops);
  Graph.Op.create ~loc:dl.dl_ast.d_loc "irdl.dialect"
    ~attrs:(("name", str dl.dl_name) :: list "enums" lower_enum dl.dl_enums)
    ~regions:[ Graph.Region.create ~blocks:[ body ] () ]

(* ---------------- lifting ---------------- *)

(* Lifting runs on every definition and slot of every pack loaded: one
   pass over each op's attributes, lists mapped by direct recursion, each
   distinct constraint attribute lifted once ([memo]), and a malformed
   shape raised, caught once per definition. *)

type env = {
  memo : (Attr.t, C.t) Hashtbl.t;
  loc : Loc.t;  (** where errors go *)
  def : Loc.t;  (** the definition's location, for relative slot positions *)
}

let fail env fmt = Diag.raise_error ~loc:env.loc fmt
let expected env what a = fail env "expected %s, got %s" what (Attr.to_string a)
let string_of env = function Attr.String s -> s | a -> expected env "a string" a
let elements env = function Attr.Array l -> l | a -> expected env "an array" a

let rec strings env = function
  | [] -> []
  | a :: tl ->
      let s = string_of env a in
      s :: strings env tl

let strings_of env a = strings env (elements env a)

let loc_of env = function
  | Attr.Location { file = ""; line = 0; _ } -> Loc.unknown
  | Attr.Location { file; line; col } ->
      Loc.point { Loc.file; line; col; offset = 0 }
  | a -> expected env "a location" a

let malformed env a = fail env "malformed constraint %s" (Attr.to_string a)

let rec constraint_of env a =
  match Hashtbl.find env.memo a with
  | c -> c
  | exception Not_found ->
      let c = constraint_node env a in
      Hashtbl.add env.memo a c;
      c

and constraint_node env a : C.t =
  match a with
  | Attr.Dyn_attr { dialect = "irdl"; name; params = ps } -> (
      match (name, ps) with
      | "any", [] -> C.Any
      | "any_type", [] -> C.Any_type
      | "any_attr", [] -> C.Any_attr
      | "eq", [ a ] -> C.Eq (Attr.intern a)
      | "base_type", Attr.String dialect :: Attr.String name :: ps ->
          C.Base_type { dialect; name; params = params env a ps }
      | "base_attr", Attr.String dialect :: Attr.String name :: ps ->
          C.Base_attr { dialect; name; params = params env a ps }
      | "int_param", [ Attr.Type (Attr.Integer { width; signedness }) ] ->
          C.Int_param { ik_width = width; ik_signedness = signedness }
      | "float_param", [] -> C.Float_param None
      | "float_param", [ Attr.Type (Attr.Float k) ] -> C.Float_param (Some k)
      | "string_param", [] -> C.String_param
      | "symbol_param", [] -> C.Symbol_param
      | "bool_param", [] -> C.Bool_param
      | "location_param", [] -> C.Location_param
      | "type_id_param", [] -> C.Type_id_param
      | "enum_param", [ Attr.String dialect; Attr.String enum ] ->
          C.Enum_param { dialect; enum }
      | "array_any", [] -> C.Array_any
      | "array_of", [ c ] -> C.Array_of (constraint_of env c)
      | "array_exact", l -> C.Array_exact (constraints env l)
      | "any_of", l -> C.Any_of (constraints env l)
      | "and", l -> C.And (constraints env l)
      | "not", [ c ] -> C.Not (constraint_of env c)
      | "var", [ Attr.String v_name; c ] ->
          C.Var { v_name; v_constraint = constraint_of env c }
      | "native", [ Attr.String name; base; Attr.Array snippets ] ->
          let base = constraint_of env base in
          C.Native { name; base; snippets = strings env snippets }
      | "native_param", [ Attr.String name; Attr.String class_name ] ->
          C.Native_param { name; class_name }
      | "variadic", [ c ] -> C.Variadic (constraint_of env c)
      | "optional", [ c ] -> C.Optional (constraint_of env c)
      | _ -> malformed env a)
  | _ -> malformed env a

(* A base constraint's optional parameter list, in [a]. *)
and params env a = function
  | [] -> None
  | [ Attr.Array ps ] -> Some (constraints env ps)
  | _ -> malformed env a

and constraints env = function
  | [] -> []
  | a :: tl ->
      let c = constraint_of env a in
      c :: constraints env tl

let rec vars env = function
  | [] -> []
  | a :: tl -> (
      match constraint_of env a with
      | C.Var v -> v :: vars env tl
      | _ -> expected env "an #irdl.var" a)

let rec slots env = function
  | [] -> []
  | Attr.Dyn_attr
      { dialect = "irdl"; name = "slot"; params = [ Attr.String s_name; c; l ] }
    :: tl ->
      let s_loc =
        match l with
        | Attr.Dyn_attr
            {
              dialect = "irdl";
              name = "at";
              params =
                [ Attr.Int { value = dl; _ }; Attr.Int { value = col; _ } ];
            }
          when not (Loc.is_unknown env.def) ->
            let p = env.def.start_pos in
            let line = p.line + Int64.to_int dl in
            Loc.point { p with line; col = Int64.to_int col; offset = 0 }
        | l -> loc_of env l
      in
      let s = { Resolve.s_name; s_constraint = constraint_of env c; s_loc } in
      s :: slots env tl
  | a :: _ -> fail env "malformed slot %s" (Attr.to_string a)

let rec regions env : Attr.t list -> Resolve.region list = function
  | [] -> []
  | Attr.Dyn_attr
      {
        dialect = "irdl";
        name = "region";
        params = Attr.String reg_name :: Attr.Array args :: ([] | [ _ ] as t);
      }
    :: tl ->
      let reg_args = slots env args in
      let reg_terminator = Option.map (string_of env) (List.nth_opt t 0) in
      { reg_name; reg_args; reg_terminator } :: regions env tl
  | a :: _ -> fail env "malformed region %s" (Attr.to_string a)

let rec enums env : Attr.t list -> Ast.enum_def list = function
  | [] -> []
  | Attr.Dyn_attr
      {
        dialect = "irdl";
        name = "enum_def";
        params = [ Attr.String e_name; Attr.Array cases; l ];
      }
    :: tl ->
      let e_cases = strings env cases and e_loc = loc_of env l in
      { Ast.e_name; e_cases; e_loc } :: enums env tl
  | a :: _ -> fail env "malformed enum %s" (Attr.to_string a)

(* A definition op: [regions] regions and no operands, results or
   successors. Its fields are read in one pass over its attributes
   ([field]), and [name] is the one it must have. *)
let fields env (op : Graph.op) ~regions field init =
  if
    Array.length op.op_operands > 0
    || Array.length op.op_results > 0
    || op.successors <> []
    || List.length op.regions <> regions
  then
    fail env "%s: expected %d region(s) and no operands, results or successors"
      op.op_name regions;
  if not (List.mem_assoc "name" op.attrs) then
    fail env "%s: missing attribute 'name'" op.op_name;
  List.fold_left field init op.attrs

let unexpected env (op : Graph.op) k =
  fail env "%s: unexpected attribute '%s'" op.op_name k

let typedef_of env (op : Graph.op) =
  let field (td : Resolve.typedef) (k, a) =
    match k with
    | "name" -> { td with td_name = string_of env a }
    | "summary" -> { td with td_summary = Some (string_of env a) }
    | "params" -> { td with td_params = slots env (elements env a) }
    | "cpp" -> { td with td_cpp = strings_of env a }
    | k -> unexpected env op k
  in
  fields env op ~regions:0 field
    {
      Resolve.td_name = "";
      td_summary = None;
      td_params = [];
      td_cpp = [];
      td_loc = op.op_loc;
    }

let op_of env (op : Graph.op) =
  let field (o : Resolve.op) (k, a) =
    match k with
    | "name" -> { o with op_name = string_of env a }
    | "summary" -> { o with op_summary = Some (string_of env a) }
    | "vars" -> { o with op_vars = vars env (elements env a) }
    | "operands" -> { o with op_operands = slots env (elements env a) }
    | "results" -> { o with op_results = slots env (elements env a) }
    | "attributes" -> { o with op_attributes = slots env (elements env a) }
    | "regions" -> { o with op_regions = regions env (elements env a) }
    | "successors" -> { o with op_successors = Some (strings_of env a) }
    | "format" -> { o with op_format = Some (string_of env a) }
    | "cpp" -> { o with op_cpp = strings_of env a }
    | k -> unexpected env op k
  in
  fields env op ~regions:0 field
    {
      Resolve.op_name = "";
      op_summary = None;
      op_vars = [];
      op_operands = [];
      op_results = [];
      op_attributes = [];
      op_regions = [];
      op_successors = None;
      op_format = None;
      op_cpp = [];
      op_loc = op.op_loc;
    }

let lift ?(file = "<bytecode>") ~engine ops =
  let file_loc = Loc.point (Loc.start_of_file file) in
  let env_of memo (op : Graph.op) =
    let loc = if Loc.is_unknown op.op_loc then file_loc else op.op_loc in
    { memo; loc; def = op.op_loc }
  in
  (* The diagnostic of a failed definition, emitted; the rest goes on. *)
  let report env e =
    Result.iter_error (Diag.Engine.emit engine)
      (Diag.protect_any ~loc:env.loc (fun () -> raise e))
  in
  let dialect_of env (op : Graph.op) : Resolve.dialect =
    let field (name, enums') (k, a) =
      match k with
      | "name" -> (string_of env a, enums')
      | "enums" -> (name, enums env (elements env a))
      | k -> unexpected env op k
    in
    let dl_name, dl_enums = fields env op ~regions:1 field ("", []) in
    let types = ref [] and attrs = ref [] and defs = ref [] in
    let add env (def : Graph.op) =
      match def.op_name with
      | "irdl.type" -> types := typedef_of env def :: !types
      | "irdl.attribute" -> attrs := typedef_of env def :: !attrs
      | "irdl.operation" -> defs := op_of env def :: !defs
      | name -> fail env "unexpected op '%s' in irdl.dialect" name
    in
    List.iter
      (fun b ->
        Graph.Block.iter_ops b ~f:(fun def ->
            let env = env_of env.memo def in
            match add env def with () -> () | exception e -> report env e))
      (Graph.Region.blocks (List.hd op.regions));
    {
      dl_name;
      dl_types = List.rev !types;
      dl_attrs = List.rev !attrs;
      dl_ops = List.rev !defs;
      dl_enums;
      dl_ast =
        {
          Ast.d_name = dl_name;
          d_items = List.map (fun e -> Ast.I_enum e) dl_enums;
          d_loc = op.op_loc;
        };
    }
  in
  let module_reported = ref false in
  Seq.filter_map
    (fun (op : Graph.op) ->
      if String.equal op.op_name "irdl.dialect" then
        let env = env_of (Hashtbl.create 64) op in
        match dialect_of env op with
        | dl -> Some dl
        | exception e ->
            report env e;
            None
      else begin
        if not !module_reported then begin
          module_reported := true;
          Diag.Engine.emit engine
            (Diag.error ~loc:file_loc
               "bytecode document holds an IR module, expected dialect \
                definitions")
        end;
        None
      end)
    ops
  |> List.of_seq
