(** Pretty-printer for IRDL ASTs.

    Emits the surface syntax of paper §4; [Pp.dialect] followed by
    [Parser.parse_one] is the identity on ASTs up to locations, a property
    the test suite checks with qcheck. *)

(* String literals are quoted exactly as the IR printer quotes them, the
   inverse of the shared lexer's [Sbuf.string_literal]. *)
let quoted ppf s =
  let b = Buffer.create (String.length s + 2) in
  Irdl_ir.Attr.add_quoted b s;
  Fmt.string ppf (Buffer.contents b)

let pp_prefix ppf = function
  | Ast.P_type -> Fmt.string ppf "!"
  | Ast.P_attr -> Fmt.string ppf "#"
  | Ast.P_bare -> ()

let rec pp_cexpr ppf (e : Ast.cexpr) =
  match e with
  | Ast.C_ref { prefix; name; args; _ } -> (
      Fmt.pf ppf "%a%s" pp_prefix prefix name;
      match args with
      | None -> ()
      | Some args -> Fmt.pf ppf "<%a>" Fmt.(list ~sep:comma pp_cexpr) args)
  | Ast.C_int { value; kind = None; _ } -> Fmt.pf ppf "%Ld" value
  | Ast.C_int { value; kind = Some k; _ } -> Fmt.pf ppf "%Ld : %s" value k
  | Ast.C_string { value; _ } -> quoted ppf value
  | Ast.C_list { elems; _ } ->
      Fmt.pf ppf "[%a]" Fmt.(list ~sep:comma pp_cexpr) elems

let pp_param ppf (p : Ast.param) =
  Fmt.pf ppf "%s: %a" p.p_name pp_cexpr p.p_constraint

let pp_params ppf = function
  | [] -> ()
  | ps -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:comma pp_param) ps

let pp_summary ppf = function
  | None -> ()
  | Some s -> Fmt.pf ppf "@,Summary %a" quoted s

let pp_cpp ppf snippets =
  List.iter (fun s -> Fmt.pf ppf "@,CppConstraint %a" quoted s) snippets

let pp_type_def ppf (t : Ast.type_def) =
  Fmt.pf ppf "@[<v 2>Type %s {" t.t_name;
  if t.t_params <> [] then Fmt.pf ppf "@,Parameters %a" pp_params t.t_params;
  pp_summary ppf t.t_summary;
  pp_cpp ppf t.t_cpp_constraints;
  Fmt.pf ppf "@]@,}"

let pp_attr_def ppf (a : Ast.attr_def) =
  Fmt.pf ppf "@[<v 2>Attribute %s {" a.a_name;
  if a.a_params <> [] then Fmt.pf ppf "@,Parameters %a" pp_params a.a_params;
  pp_summary ppf a.a_summary;
  pp_cpp ppf a.a_cpp_constraints;
  Fmt.pf ppf "@]@,}"

let pp_region_def ppf (r : Ast.region_def) =
  Fmt.pf ppf "@,@[<v 2>Region %s {" r.r_name;
  if r.r_args <> [] then Fmt.pf ppf "@,Arguments %a" pp_params r.r_args;
  (match r.r_terminator with
  | None -> ()
  | Some t -> Fmt.pf ppf "@,Terminator %s" t);
  Fmt.pf ppf "@]@,}"

let pp_op_def ppf (o : Ast.op_def) =
  Fmt.pf ppf "@[<v 2>Operation %s {" o.o_name;
  if o.o_constraint_vars <> [] then
    Fmt.pf ppf "@,ConstraintVars %a" pp_params o.o_constraint_vars;
  if o.o_operands <> [] then Fmt.pf ppf "@,Operands %a" pp_params o.o_operands;
  if o.o_results <> [] then Fmt.pf ppf "@,Results %a" pp_params o.o_results;
  if o.o_attributes <> [] then
    Fmt.pf ppf "@,Attributes %a" pp_params o.o_attributes;
  List.iter (pp_region_def ppf) o.o_regions;
  (match o.o_successors with
  | None -> ()
  | Some succs ->
      Fmt.pf ppf "@,Successors (%a)" Fmt.(list ~sep:comma string) succs);
  (match o.o_format with
  | None -> ()
  | Some f -> Fmt.pf ppf "@,Format %a" quoted f);
  pp_summary ppf o.o_summary;
  pp_cpp ppf o.o_cpp_constraints;
  Fmt.pf ppf "@]@,}"

let pp_alias_def ppf (a : Ast.alias_def) =
  Fmt.pf ppf "Alias %a%s" pp_prefix a.al_prefix a.al_name;
  if a.al_params <> [] then
    Fmt.pf ppf "<%a>" Fmt.(list ~sep:comma string) a.al_params;
  Fmt.pf ppf " = %a" pp_cexpr a.al_body

let pp_enum_def ppf (e : Ast.enum_def) =
  Fmt.pf ppf "Enum %s { %a }" e.e_name
    Fmt.(list ~sep:comma string)
    e.e_cases

let pp_constraint_def ppf (c : Ast.constraint_def) =
  Fmt.pf ppf "@[<v 2>Constraint %s : %a {" c.c_name pp_cexpr c.c_base;
  pp_summary ppf c.c_summary;
  pp_cpp ppf c.c_cpp_constraints;
  Fmt.pf ppf "@]@,}"

let pp_param_def ppf (tp : Ast.param_def) =
  Fmt.pf ppf "@[<v 2>TypeOrAttrParam %s {" tp.tp_name;
  pp_summary ppf tp.tp_summary;
  Fmt.pf ppf "@,CppClassName %a" quoted tp.tp_class_name;
  (match tp.tp_parser with
  | None -> ()
  | Some s -> Fmt.pf ppf "@,CppParser %a" quoted s);
  (match tp.tp_printer with
  | None -> ()
  | Some s -> Fmt.pf ppf "@,CppPrinter %a" quoted s);
  Fmt.pf ppf "@]@,}"

let pp_item ppf = function
  | Ast.I_type t -> pp_type_def ppf t
  | Ast.I_attr a -> pp_attr_def ppf a
  | Ast.I_op o -> pp_op_def ppf o
  | Ast.I_alias a -> pp_alias_def ppf a
  | Ast.I_enum e -> pp_enum_def ppf e
  | Ast.I_constraint c -> pp_constraint_def ppf c
  | Ast.I_param tp -> pp_param_def ppf tp

let pp_dialect ppf (d : Ast.dialect) =
  Fmt.pf ppf "@[<v 2>Dialect %s {" d.d_name;
  List.iter (fun item -> Fmt.pf ppf "@,@,%a" pp_item item) d.d_items;
  Fmt.pf ppf "@]@,}@."

(* Strip the trailing indentation that vertical boxes leave on blank
   lines. *)
let strip_trailing_ws s =
  String.split_on_char '\n' s
  |> List.map (fun line ->
         let n = ref (String.length line) in
         while !n > 0 && (line.[!n - 1] = ' ' || line.[!n - 1] = '\t') do
           decr n
         done;
         String.sub line 0 !n)
  |> String.concat "\n"

let dialect_to_string d = strip_trailing_ws (Fmt.str "%a" pp_dialect d)
let cexpr_to_string e = Fmt.str "%a" pp_cexpr e
