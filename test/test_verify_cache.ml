(** Tests for the memoized verification cache: cached results must be
    indistinguishable from recomputation (identical diagnostics on repeat
    runs), registration must invalidate, and the hit/miss counters must
    behave monotonically. *)

open Irdl_ir
open Util

let stats ctx = (Context.stats ctx).st_verify

(* An op whose result type is malformed at the *type* level (wrong parameter
   arity), so the failure itself is what gets memoized. *)
let bad_complex_op () =
  Graph.Op.create
    ~result_tys:[ Attr.dynamic ~dialect:"cmath" ~name:"complex" [] ]
    "t.v"

let repeat_verify_same_diagnostics () =
  let ctx = cmath_ctx () in
  let op = bad_complex_op () in
  let run () =
    List.map Irdl_support.Diag.to_string (Verifier.verify_all ctx op)
  in
  let first = run () in
  let s1 = stats ctx in
  let second = run () in
  let s2 = stats ctx in
  Alcotest.(check (list string)) "identical diagnostics" first second;
  Alcotest.(check bool) "first run failed" true (first <> []);
  Alcotest.(check bool) "second run hit the cache" true (s2.vs_hits > s1.vs_hits);
  Alcotest.(check int) "no new misses on repeat" s1.vs_misses s2.vs_misses

let registration_invalidates_cached_failure () =
  (* In a strict context an unregistered type fails verification; that
     failure is cached. Registering the defining dialect must flush the
     cache so the same (interned, same-id) type now verifies. *)
  let ctx = Context.create ~allow_unregistered:false () in
  let _ =
    check_ok "load t"
      (Irdl_core.Irdl.load_one ctx {|Dialect t { Operation v { Results (r: !AnyType) } }|})
  in
  let op =
    Graph.Op.create
      ~result_tys:[ Attr.dynamic ~dialect:"d2" ~name:"box" [] ]
      "t.v"
  in
  verify_err ~containing:"unregistered type" ctx op;
  verify_err ~containing:"unregistered type" ctx op;
  let before = stats ctx in
  Alcotest.(check bool) "failure was cached" true (before.vs_hits > 0);
  let _ =
    check_ok "load d2"
      (Irdl_core.Irdl.load_one ctx {|Dialect d2 { Type box {} }|})
  in
  let after = stats ctx in
  Alcotest.(check bool) "registration invalidated" true
    (after.vs_invalidations > before.vs_invalidations);
  verify_ok ctx op

let corpus_hits_grow_monotonically () =
  let ctx = Irdl_ir.Context.create () in
  let _ = check_ok "load corpus" (Irdl_dialects.Corpus.load_all ctx) in
  let blk = Graph.Block.create () in
  for i = 0 to 19 do
    Graph.Block.append blk
      (Graph.Op.create
         ~result_tys:
           [
             Attr.dynamic ~dialect:"async" ~name:"token" [];
             Attr.dynamic ~dialect:"shape" ~name:"witness"
               [ Attr.int (Int64.of_int (i mod 4)) ];
           ]
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
  Alcotest.(check bool) "hit rate dominates" true
    (Context.verify_hit_rate s > 0.5)

let cache_toggle () =
  let ctx = cmath_ctx () in
  let op = bad_complex_op () in
  ignore (Verifier.verify_all ctx op);
  Alcotest.(check bool) "enabled by default" true
    (Context.verify_cache_enabled ctx);
  Context.set_verify_cache ctx false;
  let s = stats ctx in
  Alcotest.(check int) "disable flushes ty entries" 0 s.vs_ty_entries;
  Alcotest.(check int) "disable flushes attr entries" 0 s.vs_attr_entries;
  (* Uncached verification must reach the same verdict and record nothing. *)
  let diags = Verifier.verify_all ctx op in
  Alcotest.(check bool) "still fails uncached" true (diags <> []);
  let s' = stats ctx in
  Alcotest.(check int) "no entries while disabled" 0 s'.vs_ty_entries;
  Alcotest.(check int) "no hits while disabled" s.vs_hits s'.vs_hits;
  Context.set_verify_cache ctx true;
  ignore (Verifier.verify_all ctx op);
  Alcotest.(check bool) "re-enabled cache repopulates" true
    ((stats ctx).vs_ty_entries > 0)

(* A flush empties the live shard but keeps its counters: a cold run
   after the flush adds exactly what the cold run before it added. *)
let single_domain_shard_is_the_merged_view () =
  let ctx = cmath_ctx () in
  let verify () = ignore (Verifier.verify_all ctx (bad_complex_op ())) in
  let s0 = stats ctx in
  verify ();
  let s1 = stats ctx in
  Alcotest.(check bool) "entries recorded" true (s1.vs_ty_entries > 0);
  Context.invalidate_verify_cache ctx;
  let s2 = stats ctx in
  Alcotest.(check int) "flush empties ty entries" 0 s2.vs_ty_entries;
  Alcotest.(check int) "flush empties attr entries" 0 s2.vs_attr_entries;
  Alcotest.(check int) "hits kept" s1.vs_hits s2.vs_hits;
  Alcotest.(check int) "misses kept" s1.vs_misses s2.vs_misses;
  Alcotest.(check int) "flush counted" (s1.vs_invalidations + 1)
    s2.vs_invalidations;
  verify ();
  let s3 = stats ctx in
  Alcotest.(check int) "same entries again" s1.vs_ty_entries s3.vs_ty_entries;
  Alcotest.(check int) "a cold run's hits again" (s1.vs_hits - s0.vs_hits)
    (s3.vs_hits - s2.vs_hits);
  Alcotest.(check int) "a cold run's misses again"
    (s1.vs_misses - s0.vs_misses) (s3.vs_misses - s2.vs_misses)

(* After freeze, no registration can flush: shards only ever gain entries. *)
let post_freeze_append_only () =
  let ctx = cmath_ctx () in
  Context.freeze ctx;
  ignore (Verifier.verify_all ctx (bad_complex_op ()));
  let s1 = stats ctx in
  Alcotest.(check bool) "warmed up" true (s1.vs_ty_entries > 0);
  (* A different type only adds entries; a repeat only adds hits. *)
  ignore
    (Verifier.verify_all ctx
       (Graph.Op.create ~result_tys:[ complex_f64 ] "t.v"));
  ignore (Verifier.verify_all ctx (bad_complex_op ()));
  let s2 = stats ctx in
  Alcotest.(check bool) "entries grew" true
    (s2.vs_ty_entries >= s1.vs_ty_entries);
  Alcotest.(check bool) "hits grew" true (s2.vs_hits > s1.vs_hits);
  Alcotest.(check int) "no invalidation happened" s1.vs_invalidations
    s2.vs_invalidations;
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
  Alcotest.(check int) "rejected registration flushed nothing"
    s2.vs_ty_entries s3.vs_ty_entries;
  Alcotest.(check int) "rejected registration did not invalidate"
    s2.vs_invalidations s3.vs_invalidations

(* Registration (pre-freeze) must flush every domain's shard, not just the
   registering domain's: a live domain that waits while another registers
   misses again afterwards. *)
let invalidation_reaches_all_shards () =
  let ctx = cmath_ctx () in
  let verify () = ignore (Verifier.verify_all ctx (bad_complex_op ())) in
  let misses () = (stats ctx).vs_misses in
  verify ();
  let warm = Atomic.make false and registered = Atomic.make false in
  let worker =
    Domain.spawn (fun () ->
        verify ();
        let m0 = misses () in
        verify ();
        let m1 = misses () in
        Atomic.set warm true;
        while not (Atomic.get registered) do
          Domain.cpu_relax ()
        done;
        verify ();
        (m1 - m0, misses () - m1))
  in
  while not (Atomic.get warm) do
    Domain.cpu_relax ()
  done;
  let before = stats ctx in
  Alcotest.(check bool) "the calling domain's shard has entries" true
    (before.vs_ty_entries > 0);
  let _ =
    check_ok "load d2"
      (Irdl_core.Irdl.load_one ctx {|Dialect d2 { Type box {} }|})
  in
  let after = stats ctx in
  Alcotest.(check int) "calling domain flushed: ty" 0 after.vs_ty_entries;
  Alcotest.(check int) "calling domain flushed: attr" 0 after.vs_attr_entries;
  Atomic.set registered true;
  let warm_misses, flushed_misses = Domain.join worker in
  Alcotest.(check int) "a warm shard does not miss" 0 warm_misses;
  Alcotest.(check bool) "the waiting domain's shard was flushed" true
    (flushed_misses > 0);
  Alcotest.(check bool) "invalidation counted" true
    (after.vs_invalidations > before.vs_invalidations)

let suite =
  [
    tc "repeat verification: identical diagnostics" repeat_verify_same_diagnostics;
    tc "single-domain shard equals merged view"
      single_domain_shard_is_the_merged_view;
    tc "post-freeze shards are append-only" post_freeze_append_only;
    tc "registration invalidates every shard" invalidation_reaches_all_shards;
    tc "registration invalidates a cached failure"
      registration_invalidates_cached_failure;
    tc "hit counters grow across corpus verify_all"
      corpus_hits_grow_monotonically;
    tc "cache can be toggled off and on" cache_toggle;
  ]
