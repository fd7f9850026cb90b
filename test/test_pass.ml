(** Tests for the pass infrastructure: unified statistics, the textual
    pipeline parser, the builtin passes, and the instrumented pass manager
    (timing, IR snapshots, verify-after-each with failure attribution). *)

open Irdl_support
open Irdl_ir
open Irdl_pass
open Util

let count scope name =
  let n = ref 0 in
  Graph.Op.walk scope ~f:(fun o -> if Graph.Op.name o = name then incr n);
  !n

(* A module with a CSE-able duplicate and (after CSE) a dead op. *)
let dup_module ctx =
  parse_op ctx
    {|
"func.func"() ({
^bb0(%p: !cmath.complex<f32>):
  %n1 = cmath.norm %p : f32
  %n2 = cmath.norm %p : f32
  %m = "arith.mulf"(%n1, %n2) : (f32, f32) -> f32
  "func.return"(%m) : (f32) -> ()
}) : () -> ()
|}

(* ------------------------------------------------------------------ *)
(* Unified statistics                                                  *)
(* ------------------------------------------------------------------ *)

let stats_basics () =
  let s = Stats.v [ ("a", 2); ("b", 0) ] in
  Alcotest.(check int) "get present" 2 (Stats.get s "a");
  Alcotest.(check int) "get absent" 0 (Stats.get s "c");
  Alcotest.(check bool) "flag zero" false (Stats.get_flag s "b");
  Alcotest.(check bool) "flag set" true (Stats.get_flag s "a");
  Alcotest.(check bool) "duplicate names rejected" true
    (try
       ignore (Stats.v [ ("x", 1); ("x", 2) ]);
       false
     with Invalid_argument _ -> true)

let stats_add_order () =
  let a = Stats.v [ ("x", 1); ("y", 2) ] in
  let b = Stats.v [ ("y", 3); ("z", 4) ] in
  Alcotest.(check (list (pair string int)))
    "pointwise sum, first-appearance order"
    [ ("x", 1); ("y", 5); ("z", 4) ]
    (Stats.counters (Stats.add a b))

let stats_render () =
  let s = Stats.v [ ("examined", 4); ("eliminated", 1) ] in
  Alcotest.(check string)
    "pp" "examined=4, eliminated=1"
    (Fmt.str "%a" Stats.pp s);
  Alcotest.(check string)
    "json" {|{ "examined": 4, "eliminated": 1 }|}
    (Stats.to_json s);
  Alcotest.(check string) "empty pp" "(no statistics)"
    (Fmt.str "%a" Stats.pp Stats.empty);
  Alcotest.(check string) "empty json" "{}" (Stats.to_json Stats.empty)

(* ------------------------------------------------------------------ *)
(* Pipeline parser                                                     *)
(* ------------------------------------------------------------------ *)

let available = Passes.builtin ()

let parse_names src =
  match Pipeline.parse ~available src with
  | Ok passes -> List.map Pass.name passes
  | Error d -> Alcotest.failf "unexpected parse error: %s" (Diag.to_string d)

let parse_err src =
  match Pipeline.parse ~available src with
  | Ok _ -> Alcotest.failf "pipeline %S: expected an error" src
  | Error d -> d

let pipeline_ok () =
  Alcotest.(check (list string))
    "order preserved"
    [ "canonicalize"; "cse"; "dce" ]
    (parse_names "canonicalize,cse,dce");
  Alcotest.(check (list string))
    "whitespace ignored" [ "cse"; "dce" ]
    (parse_names "  cse ,\tdce ");
  Alcotest.(check (list string))
    "single pass" [ "verify-dominance" ]
    (parse_names "verify-dominance")

let located what d line col =
  Alcotest.(check string)
    (what ^ ": file")
    Pipeline.default_file d.Diag.loc.Loc.start_pos.Loc.file;
  Alcotest.(check int) (what ^ ": line") line d.Diag.loc.Loc.start_pos.Loc.line;
  Alcotest.(check int) (what ^ ": col") col d.Diag.loc.Loc.start_pos.Loc.col

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_msg what d needle =
  if not (contains (Diag.to_string d) needle) then
    Alcotest.failf "%s: diagnostic %S does not mention %S" what
      (Diag.to_string d) needle

let pipeline_unknown () =
  let d = parse_err "cse,nope" in
  check_msg "unknown" d "unknown pass 'nope'";
  check_msg "unknown lists alternatives" d "available passes";
  located "unknown" d 1 5

let pipeline_empty_entry () =
  let d = parse_err "cse,,dce" in
  check_msg "empty entry" d "empty pass name";
  located "empty entry" d 1 5

let pipeline_trailing_comma () =
  let d = parse_err "cse,dce," in
  check_msg "trailing comma" d "trailing comma";
  located "trailing comma" d 1 8

let pipeline_empty () =
  let d = parse_err "" in
  check_msg "empty pipeline" d "empty pass pipeline";
  let d = parse_err "   " in
  check_msg "blank pipeline" d "empty pass pipeline"

let pipeline_duplicate () =
  let d = parse_err "cse,dce,cse" in
  check_msg "duplicate" d "duplicate pass 'cse'";
  check_msg "duplicate points back" d "first occurrence here";
  located "duplicate" d 1 9

(* Parsing never raises, whatever the input. *)
let pipeline_no_exceptions () =
  List.iter
    (fun src ->
      match Pipeline.parse ~available src with Ok _ | Error _ -> ())
    [ ","; ",,"; " , "; "\n"; "cse dce"; "cse;dce"; String.make 4096 ',' ]

(* ------------------------------------------------------------------ *)
(* Pass manager                                                        *)
(* ------------------------------------------------------------------ *)

let manager_runs_pipeline () =
  let ctx = cmath_ctx () in
  let func = dup_module ctx in
  let passes =
    match Pipeline.parse ~available "cse,dce" with
    | Ok ps -> ps
    | Error d -> Alcotest.failf "parse: %s" (Diag.to_string d)
  in
  let mgr = Pass_manager.create passes in
  let report = check_ok "run" (Pass_manager.run mgr ctx [ func ]) in
  Alcotest.(check (list string))
    "report order" [ "cse"; "dce" ]
    (List.map (fun r -> r.Pass_manager.pr_pass) report.Pass_manager.rp_passes);
  let cse_report = List.hd report.Pass_manager.rp_passes in
  Alcotest.(check int) "cse eliminated" 1
    (Stats.get cse_report.Pass_manager.pr_stats "eliminated");
  List.iter
    (fun r ->
      Alcotest.(check bool)
        ("non-negative time for " ^ r.Pass_manager.pr_pass)
        true
        (r.Pass_manager.pr_time_s >= 0.))
    report.Pass_manager.rp_passes;
  Alcotest.(check bool) "total covers passes" true
    (report.Pass_manager.rp_total_s >= 0.);
  Alcotest.(check int) "one norm left" 1 (count func "cmath.norm");
  verify_ok ctx func

let manager_aggregates_over_module () =
  (* Two top-level ops: statistics sum across them. *)
  let ctx = cmath_ctx () in
  let f1 = dup_module ctx and f2 = dup_module ctx in
  let mgr = Pass_manager.create [ Passes.cse ] in
  let report = check_ok "run" (Pass_manager.run mgr ctx [ f1; f2 ]) in
  let r = List.hd report.Pass_manager.rp_passes in
  Alcotest.(check int) "eliminated across both ops" 2
    (Stats.get r.Pass_manager.pr_stats "eliminated")

(* A pass that deliberately breaks the IR: it appends a cmath.norm whose
   operand is f32, violating the registered operand constraint. *)
let breaker ctx' =
  ignore ctx';
  Pass.make ~name:"breaker" ~description:"injects an invalid op"
    (fun _ctx op ->
      let blk =
        match op.Graph.regions with
        | r :: _ -> List.hd (Graph.Region.blocks r)
        | [] -> Alcotest.fail "breaker needs a region"
      in
      let f32_val =
        match Graph.Block.args blk with
        | _complex :: _ ->
            (* build a fresh f32 producer, then misuse it *)
            let producer =
              Graph.Op.create ~result_tys:[ Attr.f32 ] "t.producer"
            in
            Graph.Block.append blk producer;
            Graph.Op.result producer 0
        | [] -> Alcotest.fail "breaker needs a block arg"
      in
      Graph.Block.append blk
        (Graph.Op.create ~operands:[ f32_val ] ~result_tys:[ Attr.f32 ]
           "cmath.norm");
      Ok (Stats.v [ ("broken", 1) ]))

let verify_each_attributes_failure () =
  let ctx = cmath_ctx () in
  let func = dup_module ctx in
  let mgr =
    Pass_manager.create ~verify_each:true [ Passes.cse; breaker ctx; Passes.dce ]
  in
  match Pass_manager.run mgr ctx [ func ] with
  | Ok _ -> Alcotest.fail "expected a verification failure"
  | Error d ->
      check_msg "attribution" d "IR verification failed after pass 'breaker'";
      check_msg "underlying failure kept" d "cmath.norm"

let verify_each_off_misses_breakage () =
  (* Without verify-each the manager itself reports success; the caller's
     final re-verification is what catches it (irdl-opt does this). *)
  let ctx = cmath_ctx () in
  let func = dup_module ctx in
  let mgr = Pass_manager.create [ breaker ctx ] in
  let _ = check_ok "run" (Pass_manager.run mgr ctx [ func ]) in
  match Verifier.verify_ops ctx [ func ] with
  | Ok () -> Alcotest.fail "expected the final verify to fail"
  | Error _ -> ()

let failing_pass_attributed () =
  let ctx = cmath_ctx () in
  let func = dup_module ctx in
  let failing =
    Pass.make ~name:"exploder" (fun _ _ -> Error (Diag.error "boom"))
  in
  let mgr = Pass_manager.create [ failing ] in
  match Pass_manager.run mgr ctx [ func ] with
  | Ok _ -> Alcotest.fail "expected the pass failure to propagate"
  | Error d ->
      check_msg "original message kept" d "boom";
      check_msg "pass named in note" d "while running pass 'exploder'"

let snapshots_hit_dump_hook () =
  let ctx = cmath_ctx () in
  let func = dup_module ctx in
  let headers = ref [] in
  let dump _ctx header _ops = headers := header :: !headers in
  let mgr =
    Pass_manager.create ~print_ir_before:[ "dce" ] ~print_ir_after:[ "cse" ]
      ~dump
      [ Passes.cse; Passes.dce ]
  in
  let _ = check_ok "run" (Pass_manager.run mgr ctx [ func ]) in
  Alcotest.(check (list string))
    "dump headers"
    [ "IR dump after cse"; "IR dump before dce" ]
    (List.rev !headers);
  (* _all variants dump around every pass *)
  let func2 = dup_module ctx in
  headers := [];
  let mgr_all =
    Pass_manager.create ~print_ir_before_all:true ~print_ir_after_all:true
      ~dump
      [ Passes.cse; Passes.dce ]
  in
  let _ = check_ok "run" (Pass_manager.run mgr_all ctx [ func2 ]) in
  Alcotest.(check int) "two dumps per pass" 4 (List.length !headers)

let report_renderings () =
  let ctx = cmath_ctx () in
  let func = dup_module ctx in
  let mgr = Pass_manager.create [ Passes.cse; Passes.dce ] in
  let report = check_ok "run" (Pass_manager.run mgr ctx [ func ]) in
  let text = Fmt.str "%a" Pass_manager.pp_report report in
  List.iter
    (fun needle ->
      if not (contains text needle) then
        Alcotest.failf "text report %S misses %S" text needle)
    [ "pass execution timing report"; "total wall-clock"; "cse"; "dce";
      "eliminated=" ];
  let json = Pass_manager.report_to_json report in
  List.iter
    (fun needle ->
      if not (contains json needle) then
        Alcotest.failf "json report %S misses %S" json needle)
    [ {|"total_s"|}; {|"pass": "cse"|}; {|"pass": "dce"|}; {|"time_s"|};
      {|"stats": { "examined"|} ]

(* The reports of one pipeline over two modules merge into one, summed
   pass by pass. *)
let reports_merge () =
  let ctx = cmath_ctx () in
  let mgr = Pass_manager.create [ Passes.cse; Passes.dce ] in
  let run () = check_ok "run" (Pass_manager.run mgr ctx [ dup_module ctx ]) in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "no report" true
    (Option.is_none (Pass_manager.merge_reports []));
  match Pass_manager.merge_reports [ r1; r2 ] with
  | None -> Alcotest.fail "expected a merged report"
  | Some m ->
      Alcotest.(check (list string))
        "pipeline order" [ "cse"; "dce" ]
        (List.map (fun r -> r.Pass_manager.pr_pass) m.Pass_manager.rp_passes);
      let cse = List.hd m.Pass_manager.rp_passes in
      Alcotest.(check int) "eliminated summed" 2
        (Stats.get cse.Pass_manager.pr_stats "eliminated");
      Alcotest.(check (float 1e-12)) "total summed"
        (r1.Pass_manager.rp_total_s +. r2.Pass_manager.rp_total_s)
        m.Pass_manager.rp_total_s

(* A rendered dump is the default dump's header and generic-form ops. *)
let dump_renders () =
  let ctx = cmath_ctx () in
  let func = dup_module ctx in
  let text = Pass_manager.render_dump ctx "IR dump after cse" [ func ] in
  Alcotest.(check string) "header, then the ops"
    ("// -----// IR dump after cse //----- //\n"
    ^ Printer.ops_to_string ~generic:true ctx [ func ])
    text

(* The canonicalize pass drives the same greedy engine as Driver.apply. *)
let canonicalize_pass_applies_patterns () =
  let ctx = cmath_ctx () in
  let func =
    parse_op ctx
      {|
"func.func"() ({
^bb0(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>):
  %np = cmath.norm %p : f32
  %nq = cmath.norm %q : f32
  %m = "arith.mulf"(%np, %nq) : (f32, f32) -> f32
  "func.return"(%m) : (f32) -> ()
}) : () -> ()
|}
  in
  let pattern =
    Irdl_rewrite.Pattern.dag ~name:"norm-mul"
      ~root:
        (Irdl_rewrite.Pattern.m_op "arith.mulf"
           [
             Irdl_rewrite.Pattern.m_op "cmath.norm"
               [ Irdl_rewrite.Pattern.m_val "p" ];
             Irdl_rewrite.Pattern.m_op "cmath.norm"
               [ Irdl_rewrite.Pattern.m_val "q" ];
           ])
      ~replacement:
        (Irdl_rewrite.Pattern.b_op "cmath.norm"
           [
             Irdl_rewrite.Pattern.b_op "cmath.mul"
               [ Irdl_rewrite.Pattern.b_cap "p"; Irdl_rewrite.Pattern.b_cap "q" ]
               (Irdl_rewrite.Pattern.Ty_of_capture "p");
           ]
           (Irdl_rewrite.Pattern.Ty_const Attr.f32))
      ()
  in
  let mgr =
    Pass_manager.create ~verify_each:true
      [ Passes.canonicalize ~patterns:[ pattern ] () ]
  in
  let report = check_ok "run" (Pass_manager.run mgr ctx [ func ]) in
  let r = List.hd report.Pass_manager.rp_passes in
  Alcotest.(check int) "one application" 1
    (Stats.get r.Pass_manager.pr_stats "applications");
  Alcotest.(check int) "mul created" 1 (count func "cmath.mul");
  verify_ok ctx func

let dominance_pass_checks () =
  let ctx = Context.create () in
  let bad =
    parse_op ctx
      {|
"t.wrap"() ({
^bb0:
  "t.use"(%later) : (i32) -> ()
  %later = "t.def"() : () -> i32
}) : () -> ()
|}
  in
  let mgr = Pass_manager.create [ Passes.verify_dominance ] in
  match Pass_manager.run mgr ctx [ bad ] with
  | Ok _ -> Alcotest.fail "expected a dominance failure"
  | Error d ->
      check_msg "dominance diag" d "not dominated";
      check_msg "pass named" d "while running pass 'verify-dominance'"

let suite =
  [
    tc "stats basics" stats_basics;
    tc "stats add preserves order" stats_add_order;
    tc "stats pp and json" stats_render;
    tc "pipeline parses in order" pipeline_ok;
    tc "unknown pass is a located diagnostic" pipeline_unknown;
    tc "empty entry is a located diagnostic" pipeline_empty_entry;
    tc "trailing comma is a located diagnostic" pipeline_trailing_comma;
    tc "empty pipeline is a diagnostic" pipeline_empty;
    tc "duplicate entry is a located diagnostic" pipeline_duplicate;
    tc "pipeline parsing never raises" pipeline_no_exceptions;
    tc "manager runs a pipeline with timing" manager_runs_pipeline;
    tc "statistics aggregate across the module" manager_aggregates_over_module;
    tc "verify-each attributes breakage to the pass" verify_each_attributes_failure;
    tc "without verify-each the final verify catches it"
      verify_each_off_misses_breakage;
    tc "failing pass keeps its diagnostic, named in a note"
      failing_pass_attributed;
    tc "IR snapshots go through the dump hook" snapshots_hit_dump_hook;
    tc "timing report renders as text and JSON" report_renderings;
    tc "reports of one pipeline merge pass by pass" reports_merge;
    tc "IR dumps render to a string" dump_renders;
    tc "canonicalize pass applies patterns" canonicalize_pass_applies_patterns;
    tc "verify-dominance pass reports failures" dominance_pass_checks;
  ]
