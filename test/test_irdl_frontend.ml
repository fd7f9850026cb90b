(** Tests for the IRDL lexer, parser and pretty-printer. *)

open Irdl_core
open Util

(* ---------------- lexer ---------------- *)

let toks src =
  List.map (fun (t : Lexer.t) -> t.tok) (Lexer.tokenize src)

let lex_idents () =
  Alcotest.(check int) "count" 4 (List.length (toks "Dialect cmath {"));
  match toks "cmath.complex !f32 #foo.bar" with
  | [ Lexer.Ident "cmath.complex"; Lexer.Bang_ident "f32";
      Lexer.Hash_ident "foo.bar"; Lexer.Eof ] ->
      ()
  | _ -> Alcotest.fail "unexpected tokens"

let lex_literals () =
  match toks {|42 -3 "hi\n" |} with
  | [ Lexer.Int_lit 42L; Lexer.Int_lit -3L; Lexer.Str "hi\n"; Lexer.Eof ] -> ()
  | _ -> Alcotest.fail "unexpected literal tokens"

let lex_puncts () =
  match toks "{}()<>,:=[]" with
  | [ Lexer.Punct "{"; Lexer.Punct "}"; Lexer.Punct "("; Lexer.Punct ")";
      Lexer.Punct "<"; Lexer.Punct ">"; Lexer.Punct ","; Lexer.Punct ":";
      Lexer.Punct "="; Lexer.Punct "["; Lexer.Punct "]"; Lexer.Eof ] ->
      ()
  | _ -> Alcotest.fail "unexpected punctuation"

let lex_comments () =
  match toks "a // comment\n b" with
  | [ Lexer.Ident "a"; Lexer.Ident "b"; Lexer.Eof ] -> ()
  | _ -> Alcotest.fail "comments not skipped"

let lex_bad_char () =
  match Irdl_support.Diag.protect (fun () -> toks "a ~ b") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected lex error"

(* ---------------- parser ---------------- *)

let parse_one src = check_ok "parse" (Parser.parse_one src)

let parses_cmath () =
  let d = parse_one Irdl_dialects.Cmath.source in
  Alcotest.(check string) "name" "cmath" d.Ast.d_name;
  Alcotest.(check int) "ops" 8 (List.length (Ast.ops d));
  Alcotest.(check int) "types" 3 (List.length (Ast.types d));
  Alcotest.(check int) "attrs" 1 (List.length (Ast.attrs d));
  Alcotest.(check int) "aliases" 4 (List.length (Ast.aliases d));
  Alcotest.(check int) "enums" 1 (List.length (Ast.enums d));
  Alcotest.(check int) "constraints" 1 (List.length (Ast.constraint_defs d));
  Alcotest.(check int) "params" 1 (List.length (Ast.param_defs d))

let op_fields () =
  let d =
    parse_one
      {|Dialect d {
          Operation op {
            ConstraintVars (T: !AnyType)
            Operands (a: !T, b: Variadic<!T>)
            Results (r: !T)
            Attributes (k: string)
            Successors (s1, s2)
            Format "$a : $T"
            Summary "sum"
            CppConstraint "check($_self)"
          }
        }|}
  in
  match Ast.ops d with
  | [ op ] ->
      Alcotest.(check int) "vars" 1 (List.length op.o_constraint_vars);
      Alcotest.(check int) "operands" 2 (List.length op.o_operands);
      Alcotest.(check int) "results" 1 (List.length op.o_results);
      Alcotest.(check int) "attrs" 1 (List.length op.o_attributes);
      Alcotest.(check (option (list string))) "succs" (Some [ "s1"; "s2" ])
        op.o_successors;
      Alcotest.(check (option string)) "format" (Some "$a : $T") op.o_format;
      Alcotest.(check (option string)) "summary" (Some "sum") op.o_summary;
      Alcotest.(check (list string)) "cpp" [ "check($_self)" ]
        op.o_cpp_constraints
  | _ -> Alcotest.fail "expected one op"

let region_fields () =
  let d =
    parse_one
      {|Dialect d {
          Operation loop {
            Region body {
              Arguments (iv: !i32)
              Terminator stop
            }
          }
          Operation stop { Successors () }
        }|}
  in
  match Ast.ops d with
  | [ loop; stop ] ->
      Alcotest.(check (option (list string))) "terminator marker" (Some [])
        stop.o_successors;
      (match loop.o_regions with
      | [ r ] ->
          Alcotest.(check string) "region name" "body" r.r_name;
          Alcotest.(check int) "args" 1 (List.length r.r_args);
          Alcotest.(check (option string)) "terminator" (Some "stop")
            r.r_terminator
      | _ -> Alcotest.fail "expected one region")
  | _ -> Alcotest.fail "expected two ops"

let cexpr_shapes () =
  let e src = check_ok src (Parser.parse_constraint_string src) in
  (match e "AnyOf<!f32, !f64>" with
  | Ast.C_ref { name = "AnyOf"; args = Some [ _; _ ]; _ } -> ()
  | _ -> Alcotest.fail "AnyOf");
  (match e "3 : int32_t" with
  | Ast.C_int { value = 3L; kind = Some "int32_t"; _ } -> ()
  | _ -> Alcotest.fail "int literal");
  (match e "[!f32, string]" with
  | Ast.C_list { elems = [ _; _ ]; _ } -> ()
  | _ -> Alcotest.fail "list");
  (match e "!complex<FloatType>" with
  | Ast.C_ref { prefix = Ast.P_type; name = "complex"; args = Some [ _ ]; _ }
    ->
      ()
  | _ -> Alcotest.fail "parametric");
  match e "signedness.Signed" with
  | Ast.C_ref { prefix = Ast.P_bare; name = "signedness.Signed"; args = None; _ }
    ->
      ()
  | _ -> Alcotest.fail "dotted"

let parse_errors () =
  let err what src needle =
    check_err_containing what needle (Parser.parse_one src)
  in
  err "no dialect" "Type t {}" "expected 'Dialect'";
  err "bad item" "Dialect d { Frobnicate }" "expected a dialect item";
  err "unclosed" "Dialect d {" "unexpected end of file in dialect 'd'";
  err "bad field" "Dialect d { Operation o { Bogus } }" "expected an operation field";
  err "param needs class" "Dialect d { TypeOrAttrParam P { Summary \"x\" } }"
    "CppClassName";
  err "two dialects for parse_one" "Dialect a {} Dialect b {}"
    "exactly one"

let multiple_dialects () =
  let ds = check_ok "multi" (Parser.parse_file "Dialect a {} Dialect b {}") in
  Alcotest.(check (list string)) "names" [ "a"; "b" ]
    (List.map (fun (d : Ast.dialect) -> d.d_name) ds)

(* ---------------- pretty-printer round trip ---------------- *)

(* Structural equality of ASTs modulo locations. *)
let rec cexpr_equal (a : Ast.cexpr) (b : Ast.cexpr) =
  match (a, b) with
  | Ast.C_ref a, Ast.C_ref b ->
      a.prefix = b.prefix && a.name = b.name
      && Option.equal (List.equal cexpr_equal) a.args b.args
  | Ast.C_int a, Ast.C_int b -> a.value = b.value && a.kind = b.kind
  | Ast.C_string a, Ast.C_string b -> a.value = b.value
  | Ast.C_list a, Ast.C_list b -> List.equal cexpr_equal a.elems b.elems
  | _ -> false

let param_equal (a : Ast.param) (b : Ast.param) =
  a.p_name = b.p_name && cexpr_equal a.p_constraint b.p_constraint

let op_equal (a : Ast.op_def) (b : Ast.op_def) =
  a.o_name = b.o_name
  && List.equal param_equal a.o_constraint_vars b.o_constraint_vars
  && List.equal param_equal a.o_operands b.o_operands
  && List.equal param_equal a.o_results b.o_results
  && List.equal param_equal a.o_attributes b.o_attributes
  && a.o_successors = b.o_successors
  && a.o_format = b.o_format
  && a.o_summary = b.o_summary
  && a.o_cpp_constraints = b.o_cpp_constraints
  && List.equal
       (fun (x : Ast.region_def) (y : Ast.region_def) ->
         x.r_name = y.r_name
         && List.equal param_equal x.r_args y.r_args
         && x.r_terminator = y.r_terminator)
       a.o_regions b.o_regions

let item_equal (a : Ast.item) (b : Ast.item) =
  match (a, b) with
  | Ast.I_op x, Ast.I_op y -> op_equal x y
  | Ast.I_type x, Ast.I_type y ->
      x.t_name = y.t_name
      && List.equal param_equal x.t_params y.t_params
      && x.t_summary = y.t_summary
      && x.t_cpp_constraints = y.t_cpp_constraints
  | Ast.I_attr x, Ast.I_attr y ->
      x.a_name = y.a_name && List.equal param_equal x.a_params y.a_params
  | Ast.I_alias x, Ast.I_alias y ->
      x.al_name = y.al_name && x.al_params = y.al_params
      && cexpr_equal x.al_body y.al_body
  | Ast.I_enum x, Ast.I_enum y -> x.e_name = y.e_name && x.e_cases = y.e_cases
  | Ast.I_constraint x, Ast.I_constraint y ->
      x.c_name = y.c_name && cexpr_equal x.c_base y.c_base
      && x.c_cpp_constraints = y.c_cpp_constraints
  | Ast.I_param x, Ast.I_param y ->
      x.tp_name = y.tp_name && x.tp_class_name = y.tp_class_name
      && x.tp_parser = y.tp_parser && x.tp_printer = y.tp_printer
  | _ -> false

let dialect_equal (a : Ast.dialect) (b : Ast.dialect) =
  a.d_name = b.d_name && List.equal item_equal a.d_items b.d_items

let roundtrip_source name src () =
  let d = parse_one src in
  let printed = Pp.dialect_to_string d in
  let d' =
    check_ok (name ^ " reparse") (Parser.parse_one ~file:(name ^ ".pp") printed)
  in
  if not (dialect_equal d d') then
    Alcotest.failf "round trip changed the AST of %s:\n%s" name printed

let corpus_roundtrip () =
  List.iter
    (fun (e : Irdl_dialects.Corpus.entry) ->
      roundtrip_source e.name e.source ())
    Irdl_dialects.Corpus.all

let suite =
  [
    tc "lexer: identifiers" lex_idents;
    tc "lexer: literals" lex_literals;
    tc "lexer: punctuation" lex_puncts;
    tc "lexer: comments" lex_comments;
    tc "lexer: bad character" lex_bad_char;
    tc "parses the paper's cmath dialect" parses_cmath;
    tc "operation fields" op_fields;
    tc "region fields and terminator marker" region_fields;
    tc "constraint expression shapes" cexpr_shapes;
    tc "parse errors" parse_errors;
    tc "multiple dialects per file" multiple_dialects;
    tc "pp/parse round trip: cmath"
      (roundtrip_source "cmath" Irdl_dialects.Cmath.source);
    tc "pp/parse round trip: all 28 corpus dialects" corpus_roundtrip;
  ]
