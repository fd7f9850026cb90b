(** Error-recovering parsing: the [_collect] entry points report every
    error in a source and keep whatever parsed, instead of stopping at the
    first failure. *)

open Irdl_support
open Util

let engine () = Diag.Engine.create ()

let located e =
  List.for_all
    (fun (d : Diag.t) -> not (Loc.is_unknown d.loc))
    (Diag.Engine.diagnostics e)

(* ---------------- IRDL ---------------- *)

let irdl_multi_error () =
  let src =
    "Dialect broken {\n\
    \  Type t1 { Bogus }\n\
    \  Operation ok1 { Operands() Results() }\n\
    \  Operation bad { Operands(x UnknownThing) Results() }\n\
    \  Type t2 { Parameters (p: !f32) }\n\
     }\n"
  in
  let e = engine () in
  let dialects = Result.get_ok (Irdl_core.Parser.parse_file ~engine:e src) in
  Alcotest.(check int) "both errors reported" 2
    (Diag.Engine.error_count e);
  Alcotest.(check bool) "all located" true (located e);
  match dialects with
  | [ d ] ->
      Alcotest.(check (list string)) "good items survive"
        [ "ok1"; "t2" ]
        (List.filter_map
           (function
             | Irdl_core.Ast.I_op (o : Irdl_core.Ast.op_def) -> Some o.o_name
             | Irdl_core.Ast.I_type (t : Irdl_core.Ast.type_def) -> Some t.t_name
             | _ -> None)
           d.d_items)
  | ds -> Alcotest.failf "expected 1 dialect, got %d" (List.length ds)

let irdl_two_dialects () =
  (* An unterminated dialect must not swallow the next one. *)
  let src =
    "Dialect first {\n\
    \  Type broken {\n\
     Dialect second {\n\
    \  Type fine { Parameters (p: !f32) }\n\
     }\n"
  in
  let e = engine () in
  let dialects = Result.get_ok (Irdl_core.Parser.parse_file ~engine:e src) in
  Alcotest.(check bool) "errors reported" true (Diag.Engine.has_errors e);
  Alcotest.(check (list string)) "second dialect recovered" [ "second" ]
    (List.filter (fun n -> n = "second")
       (List.map (fun (d : Irdl_core.Ast.dialect) -> d.d_name) dialects))

let irdl_max_errors () =
  let src =
    "Dialect d {\n  Type a { Bogus }\n  Type b { Bogus }\n  Type c { Bogus }\n}\n"
  in
  let e = Diag.Engine.create ~max_errors:2 () in
  let _ = Result.get_ok (Irdl_core.Parser.parse_file ~engine:e src) in
  Alcotest.(check int) "capped" 2 (Diag.Engine.error_count e)

let load_collect_partial () =
  (* A definition that fails to resolve is dropped; its siblings register. *)
  let src =
    "Dialect part {\n\
    \  Type good { Parameters (p: !f32) }\n\
    \  Type dup { Parameters (p: !f32) }\n\
    \  Type dup { Parameters (q: !f64) }\n\
    \  Operation use { Operands(x: !good<!f32>) Results() }\n\
     }\n"
  in
  let e = engine () in
  let ctx = Irdl_ir.Context.create () in
  let _ = Irdl_core.Irdl.load_collect ~engine:e ctx src in
  Alcotest.(check bool) "duplicate reported" true (Diag.Engine.has_errors e);
  Alcotest.(check bool) "good type registered" true
    (Option.is_some
       (Irdl_ir.Context.lookup_type ctx ~dialect:"part" ~name:"good"));
  Alcotest.(check bool) "op registered" true
    (Option.is_some (Irdl_ir.Context.lookup_op ctx "part.use"))

(* ---------------- generic IR ---------------- *)

let ir_multi_error () =
  let src =
    "%a = \"t.one\"() : () -> (i32)\n\
     %b = \"t.two\"(%undef1) : (i32) -> (i32)\n\
     %c = \"t.three\"(%undef2) : (i32) -> (i32)\n\
     %d = \"t.four\"(%a) : (i32) -> (i32)\n"
  in
  let e = engine () in
  let ctx = Irdl_ir.Context.create () in
  let ops = Result.get_ok (Irdl_ir.Parser.parse_ops ~engine:e ctx src) in
  Alcotest.(check int) "both undefined uses reported" 2
    (Diag.Engine.error_count e);
  Alcotest.(check bool) "all located" true (located e);
  Alcotest.(check int) "well-formed ops survive" 2
    (List.length
       (List.filter
          (fun (o : Irdl_ir.Graph.op) ->
            o.op_name = "t.one" || o.op_name = "t.four")
          ops))

let ir_syntax_recovery () =
  let src =
    "%a = \"t.one\"() : () -> (i32)\n\
     %b = \"t.two\"( : ???\n\
     %c = \"t.three\"() : () -> (i32)\n"
  in
  let e = engine () in
  let ctx = Irdl_ir.Context.create () in
  let ops = Result.get_ok (Irdl_ir.Parser.parse_ops ~engine:e ctx src) in
  Alcotest.(check bool) "error reported" true (Diag.Engine.has_errors e);
  Alcotest.(check bool) "later op recovered" true
    (List.exists (fun (o : Irdl_ir.Graph.op) -> o.op_name = "t.three") ops)

let ir_region_recovery () =
  (* An error inside a region resyncs without abandoning the block. *)
  let src =
    "\"t.wrap\"() ({\n\
     ^bb0:\n\
    \  \"t.bad\"(%nope) : (i32) -> ()\n\
    \  \"t.fine\"() : () -> ()\n\
     }) : () -> ()\n"
  in
  let e = engine () in
  let ctx = Irdl_ir.Context.create () in
  let ops = Result.get_ok (Irdl_ir.Parser.parse_ops ~engine:e ctx src) in
  Alcotest.(check int) "one error" 1 (Diag.Engine.error_count e);
  match ops with
  | [ wrap ] ->
      let nested = ref [] in
      Irdl_ir.Graph.Op.walk wrap ~f:(fun o -> nested := o.op_name :: !nested);
      Alcotest.(check bool) "later op in block kept" true
        (List.mem "t.fine" !nested)
  | _ -> Alcotest.failf "expected the wrapper op to survive"

(* Fixed cases of the robustness agreement property: a call without an
   engine returns the first error of the run on one. The unterminated
   dialect and the stray top-level [}] are inputs on which two separate
   recovery modes gave different first errors. *)
let first_error_agrees () =
  let agree what run src =
    match Test_robustness.first_error_agrees run src with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: %s" what msg
  in
  agree "two bad IRDL items" Test_robustness.irdl_parse
    "Dialect d {\n  Type a { Bogus }\n  Type b { Bogus }\n}\n";
  agree "unterminated dialect" Test_robustness.irdl_parse "Dialect d {";
  agree "stray top-level brace" Test_robustness.ir_text
    "\"t.a\"() : () -> ()\n}\n\"t.b\"() : () -> ()\n";
  agree "error inside a region" Test_robustness.ir_text
    "\"t.wrap\"() ({\n  \"t.bad\"(%nope) : (i32) -> ()\n}) : () -> ()\n"

let suite =
  [
    tc "IRDL: several item errors in one pass" irdl_multi_error;
    tc "IRDL: unterminated dialect resyncs to the next" irdl_two_dialects;
    tc "IRDL: --max-errors caps collection" irdl_max_errors;
    tc "IRDL: load_collect registers surviving definitions"
      load_collect_partial;
    tc "IR: several op errors in one pass" ir_multi_error;
    tc "IR: syntax error resyncs to the next op" ir_syntax_recovery;
    tc "IR: recovery inside a region block" ir_region_recovery;
    tc "collect agrees with fail-fast on the first error" first_error_agrees;
  ]
