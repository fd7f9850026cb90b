(** Property test: for randomly generated IRDL ASTs, pretty-printing then
    re-parsing is the identity (up to source locations). This exercises the
    lexer, parser and printer against inputs far from the hand-written
    corpus. *)

open Irdl_core
open QCheck2.Gen

let loc = Irdl_support.Loc.unknown

let name_gen =
  let* base = oneofl [ "op"; "ty"; "attr"; "x"; "foo"; "value_2"; "T" ] in
  let* n = int_range 0 99 in
  return (Printf.sprintf "%s%d" base n)

let dotted_gen =
  let* a = name_gen in
  let* b = name_gen in
  oneofl [ a; a ^ "." ^ b ]

let string_lit_gen =
  (* printable, escape-friendly strings *)
  let* s = string_size ~gen:(char_range 'a' 'z') (int_range 0 8) in
  let* with_esc = bool in
  return (if with_esc then s ^ "\\n\"" else s)

let prefix_gen = oneofl [ Ast.P_type; Ast.P_attr; Ast.P_bare ]

let rec cexpr_gen n =
  if n = 0 then
    oneof
      [
        (let* prefix = prefix_gen in
         let* name = dotted_gen in
         return (Ast.C_ref { prefix; name; args = None; loc }));
        (let* value = map Int64.of_int small_signed_int in
         let* kind = opt (oneofl [ "int32_t"; "uint8_t"; "int64_t" ]) in
         return (Ast.C_int { value; kind; loc }));
        (* any bytes: Pp quotes with the IR printer's [Attr.add_quoted] *)
        (let* value = string_size ~gen:char (int_range 0 6) in
         return (Ast.C_string { value; loc }));
      ]
  else
    frequency
      [
        (3, cexpr_gen 0);
        ( 2,
          let* prefix = prefix_gen in
          let* name = dotted_gen in
          let* args = opt (list_size (int_range 0 3) (cexpr_gen (n - 1))) in
          return (Ast.C_ref { prefix; name; args; loc }) );
        ( 1,
          let* elems = list_size (int_range 0 3) (cexpr_gen (n - 1)) in
          return (Ast.C_list { elems; loc }) );
      ]

let param_gen =
  let* p_name = name_gen in
  let* p_constraint = cexpr_gen 2 in
  return { Ast.p_name; p_constraint; p_loc = loc }

let params_gen = list_size (int_range 0 3) param_gen

let summary_gen = opt (string_size ~gen:(char_range 'a' 'z') (int_range 1 10))

let cpp_gen =
  list_size (int_range 0 2)
    (string_size ~gen:(char_range 'a' 'z') (int_range 1 12))

let type_def_gen =
  let* t_name = name_gen in
  let* t_params = params_gen in
  let* t_summary = summary_gen in
  let* t_cpp_constraints = cpp_gen in
  return
    (Ast.I_type { t_name; t_params; t_summary; t_cpp_constraints; t_loc = loc })

let attr_def_gen =
  let* a_name = name_gen in
  let* a_params = params_gen in
  let* a_summary = summary_gen in
  let* a_cpp_constraints = cpp_gen in
  return
    (Ast.I_attr { a_name; a_params; a_summary; a_cpp_constraints; a_loc = loc })

let region_gen =
  let* r_name = name_gen in
  let* r_args = params_gen in
  let* r_terminator = opt dotted_gen in
  return { Ast.r_name; r_args; r_terminator; r_loc = loc }

let op_def_gen =
  let* o_name = name_gen in
  let* o_constraint_vars = params_gen in
  let* o_operands = params_gen in
  let* o_results = params_gen in
  let* o_attributes = params_gen in
  let* o_regions = list_size (int_range 0 2) region_gen in
  let* o_successors = opt (list_size (int_range 0 2) name_gen) in
  let* o_summary = summary_gen in
  let* o_cpp_constraints = cpp_gen in
  return
    (Ast.I_op
       {
         o_name; o_summary; o_constraint_vars; o_operands; o_results;
         o_attributes; o_regions; o_successors;
         o_format = None (* format strings have their own compiler tests *);
         o_cpp_constraints; o_loc = loc;
       })

let alias_gen =
  let* al_prefix = prefix_gen in
  let* al_name = name_gen in
  let* al_params = list_size (int_range 0 2) name_gen in
  let* al_body = cexpr_gen 2 in
  return (Ast.I_alias { al_prefix; al_name; al_params; al_body; al_loc = loc })

let enum_gen =
  let* e_name = name_gen in
  let* e_cases = list_size (int_range 0 4) name_gen in
  return (Ast.I_enum { e_name; e_cases; e_loc = loc })

let constraint_gen =
  let* c_name = name_gen in
  let* c_base = cexpr_gen 2 in
  let* c_summary = summary_gen in
  let* c_cpp_constraints = cpp_gen in
  return
    (Ast.I_constraint
       { c_name; c_base; c_summary; c_cpp_constraints; c_loc = loc })

let param_def_gen =
  let* tp_name = name_gen in
  let* tp_summary = summary_gen in
  let* tp_class_name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let* tp_parser = opt (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)) in
  let* tp_printer = opt (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)) in
  return
    (Ast.I_param
       { tp_name; tp_summary; tp_class_name; tp_parser; tp_printer;
         tp_loc = loc })

let item_gen =
  frequency
    [ (3, op_def_gen); (2, type_def_gen); (1, attr_def_gen); (1, alias_gen);
      (1, enum_gen); (1, constraint_gen); (1, param_def_gen) ]

let dialect_gen =
  let* d_name = name_gen in
  let* d_items = list_size (int_range 0 6) item_gen in
  return { Ast.d_name; d_items; d_loc = loc }

let roundtrip_prop =
  QCheck2.Test.make ~name:"IRDL pp/parse roundtrip on random ASTs" ~count:300
    ~print:(fun d -> Pp.dialect_to_string d)
    dialect_gen
    (fun d ->
      let printed = Pp.dialect_to_string d in
      match Parser.parse_one printed with
      | Error _ -> false
      | Ok d' ->
          (* reuse the structural equality from the frontend tests *)
          Test_irdl_frontend.dialect_equal d d')

let string_escape_prop =
  QCheck2.Test.make ~name:"string literal escaping roundtrips" ~count:300
    string_lit_gen (fun s ->
      let printed = Printf.sprintf "%S" s in
      match Lexer.tokenize printed with
      | [ { tok = Lexer.Str s'; _ }; { tok = Lexer.Eof; _ } ] -> s = s'
      | _ -> false)

let suite =
  [
    QCheck_alcotest.to_alcotest roundtrip_prop;
    QCheck_alcotest.to_alcotest string_escape_prop;
  ]
