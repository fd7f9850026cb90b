(** Tests for the verification cache, the signature memo of a frozen
    context: its verdicts must be indistinguishable from an open context's,
    which records nothing, and its hit/miss counters must behave
    monotonically. *)

open Irdl_ir
open Util

let stats ctx = (Context.stats ctx).st_verify

(* An op whose result type is malformed at the *type* level (wrong
   parameter arity). *)
let bad_complex_op () =
  Graph.Op.create
    ~result_tys:[ Attr.dynamic ~dialect:"cmath" ~name:"complex" [] ]
    "t.v"

(* A valid op and [bad_complex_op] in one function. *)
let mixed_module () =
  let blk = Graph.Block.create () in
  Graph.Block.append blk (Graph.Op.create ~result_tys:[ complex_f32 ] "t.v");
  Graph.Block.append blk (bad_complex_op ());
  Graph.Op.create ~regions:[ Graph.Region.create ~blocks:[ blk ] () ] "t.func"

let diags ctx op =
  List.map Irdl_support.Diag.to_string (Verifier.verify_all ctx op)

let repeat_verify_same_diagnostics () =
  let reference = cmath_ctx () and ctx = frozen (cmath_ctx ()) in
  let m = mixed_module () in
  let expected = diags reference m in
  let first = diags ctx m in
  let s1 = stats ctx in
  let second = diags ctx m in
  let s2 = stats ctx in
  Alcotest.(check bool) "the module fails" true (expected <> []);
  Alcotest.(check (list string)) "first run = open context" expected first;
  Alcotest.(check (list string)) "second run = open context" expected second;
  Alcotest.(check int) "second run hit the memo on the valid ops" 2
    (s2.vs_hits - s1.vs_hits);
  Alcotest.(check int) "the failure is never recorded: one miss again" 1
    (s2.vs_misses - s1.vs_misses)

(* Verifying with another frozen context empties the shard but keeps its
   counters: a cold run afterwards adds exactly what the first cold run
   added. *)
let single_domain_shard_is_the_merged_view () =
  let ctx = frozen (cmath_ctx ()) and other = frozen (Context.create ()) in
  let verify () = ignore (diags ctx (mixed_module ())) in
  let s0 = stats ctx in
  verify ();
  let s1 = stats ctx in
  Alcotest.(check bool) "signatures recorded" true (s1.vs_sigs > 0);
  ignore (diags other (Graph.Op.create "t.x"));
  let s2 = stats ctx in
  Alcotest.(check int) "the move empties the names" 0 s2.vs_names;
  Alcotest.(check int) "the move empties the signatures" 0 s2.vs_sigs;
  Alcotest.(check int) "hits kept" s1.vs_hits s2.vs_hits;
  Alcotest.(check int) "misses kept" s1.vs_misses s2.vs_misses;
  verify ();
  let s3 = stats ctx in
  Alcotest.(check int) "same signatures again" s1.vs_sigs s3.vs_sigs;
  Alcotest.(check int) "a cold run's hits again" (s1.vs_hits - s0.vs_hits)
    (s3.vs_hits - s2.vs_hits);
  Alcotest.(check int) "a cold run's misses again"
    (s1.vs_misses - s0.vs_misses) (s3.vs_misses - s2.vs_misses)

(* A frozen context never flushes: its shard only ever gains entries. *)
let post_freeze_append_only () =
  let ctx = frozen (cmath_ctx ()) in
  let valid ty = Graph.Op.create ~result_tys:[ ty ] "t.v" in
  verify_ok ctx (valid complex_f64);
  let s1 = stats ctx in
  Alcotest.(check bool) "warmed up" true (s1.vs_sigs > 0);
  (* A different signature only adds entries; a repeat only adds hits. *)
  verify_ok ctx (valid complex_f32);
  verify_ok ctx (valid complex_f64);
  let s2 = stats ctx in
  Alcotest.(check bool) "entries grew" true (s2.vs_sigs > s1.vs_sigs);
  Alcotest.(check bool) "hits grew" true (s2.vs_hits > s1.vs_hits);
  (match Context.register_type ctx
           {
             Context.td_dialect = "late";
             td_name = "t";
             td_summary = "";
             td_num_params = 0;
             td_verify = (fun _ -> Ok ());
           }
  with
  | () -> Alcotest.fail "post-freeze registration must be rejected"
  | exception Irdl_support.Diag.Error_exn _ -> ());
  let s3 = stats ctx in
  Alcotest.(check int) "rejected registration flushed nothing" s2.vs_sigs
    s3.vs_sigs;
  verify_ok ctx (valid complex_f32);
  Alcotest.(check int) "a repeat still hits" s3.vs_misses
    (stats ctx).vs_misses

(* 20 valid ops of 4 signatures: only Ok verdicts are recorded. *)
let corpus_hits_grow_monotonically () =
  let ctx = Irdl_ir.Context.create () in
  let _ = check_ok "load corpus" (Irdl_dialects.Corpus.load_all ctx) in
  Context.freeze ctx;
  let blk = Graph.Block.create () in
  for i = 0 to 19 do
    Graph.Block.append blk
      (Graph.Op.create
         ~result_tys:
           [
             Attr.dynamic ~dialect:"async" ~name:"token" [];
             Attr.dynamic ~dialect:"shape" ~name:"witness" [];
           ]
         ~attrs:[ ("k", Attr.int (Int64.of_int (i mod 4))) ]
         "t.v")
  done;
  let m =
    Graph.Op.create ~regions:[ Graph.Region.create ~blocks:[ blk ] () ]
      "t.func"
  in
  let hits = ref (stats ctx).vs_hits in
  let misses_after_warmup = ref 0 in
  for i = 1 to 4 do
    ignore (Verifier.verify_all ctx m);
    let s = stats ctx in
    Alcotest.(check bool)
      (Fmt.str "hits grew on pass %d" i)
      true (s.vs_hits > !hits);
    hits := s.vs_hits;
    if i = 1 then misses_after_warmup := s.vs_misses
    else
      Alcotest.(check int)
        (Fmt.str "no new misses on pass %d" i)
        !misses_after_warmup s.vs_misses
  done;
  let s = stats ctx in
  Alcotest.(check bool) "hits dominate" true (s.vs_hits > s.vs_misses)

(* The cache is off while the context is open and on once it is frozen:
   the same verdicts either way. *)
let cache_toggle () =
  let ctx = cmath_ctx () in
  let op = bad_complex_op () and ok = Graph.Op.create ~result_tys:[ complex_f32 ] "t.v" in
  let off = diags ctx op in
  verify_ok ctx ok;
  verify_ok ctx ok;
  Alcotest.(check bool) "fails uncached" true (off <> []);
  let s = stats ctx in
  Alcotest.(check int) "no signatures while open" 0 s.vs_sigs;
  Alcotest.(check int) "no hits while open" 0 s.vs_hits;
  Alcotest.(check int) "no misses while open" 0 s.vs_misses;
  Context.freeze ctx;
  Alcotest.(check (list string)) "same verdict frozen" off (diags ctx op);
  verify_ok ctx ok;
  verify_ok ctx ok;
  let s = stats ctx in
  Alcotest.(check int) "the frozen context records the valid op" 1 s.vs_sigs;
  Alcotest.(check int) "and hits it" 1 s.vs_hits

let suite =
  [
    tc "repeat verification: identical diagnostics" repeat_verify_same_diagnostics;
    tc "single-domain shard equals merged view"
      single_domain_shard_is_the_merged_view;
    tc "post-freeze shards are append-only" post_freeze_append_only;
    tc "hit counters grow across corpus verify_all"
      corpus_hits_grow_monotonically;
    tc "cache can be toggled off and on" cache_toggle;
  ]
