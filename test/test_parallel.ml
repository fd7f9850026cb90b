(* The concurrency harness: Domain_pool scheduling semantics, and N domains
   hammering one frozen context — interned attribute/type construction,
   cached verification — against single-domain results. *)

open Util
module Domain_pool = Irdl_support.Domain_pool
module Diag = Irdl_support.Diag
module Context = Irdl_ir.Context
module Attr = Irdl_ir.Attr
module Parser = Irdl_ir.Parser
module Verifier = Irdl_ir.Verifier

(* ---------------------------------------------------------------- *)
(* Domain_pool unit suite                                            *)
(* ---------------------------------------------------------------- *)

let test_pool_empty () =
  Domain_pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check int) "no results" 0 (Array.length (Domain_pool.run pool [||]));
      Alcotest.(check int) "nothing run on a spawned domain" 0
        (Domain_pool.steals pool))

let test_pool_positional () =
  Domain_pool.with_pool ~domains:4 (fun pool ->
      let ran = Atomic.make 0 in
      let tasks =
        Array.init 100 (fun i () ->
            Atomic.incr ran;
            i * i)
      in
      let results = Domain_pool.run pool tasks in
      Alcotest.(check (array int))
        "slot i holds task i's result"
        (Array.init 100 (fun i -> i * i))
        results;
      Alcotest.(check int) "all executed" 100 (Atomic.get ran))

let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc * 7) + i
  done;
  !acc

(* Skewed durations: whichever participant takes a heavy task, the others
   keep taking the rest from the shared counter; correctness of the
   results is the assertion (the split between domains is timing-
   dependent). *)
let test_pool_unbalanced () =
  Domain_pool.with_pool ~domains:4 (fun pool ->
      let n i = if i mod 4 = 0 then 2_000_000 else 10 in
      let tasks = Array.init 64 (fun i () -> spin (n i)) in
      let results = Domain_pool.run pool tasks in
      Alcotest.(check (array int))
        "skewed batch correct"
        (Array.init 64 (fun i -> spin (n i)))
        results;
      Alcotest.(check bool)
        "steal counter within the batch" true
        (Domain_pool.steals pool >= 0 && Domain_pool.steals pool <= 64))

(* Every task of a batch blocks until all of them started, so each of the
   4 participants holds exactly one: 3 spawned domains, 3 steals. *)
let test_pool_spawns_per_batch () =
  Domain_pool.with_pool ~domains:4 (fun pool ->
      for round = 1 to 3 do
        let started = Atomic.make 0 in
        let tasks =
          Array.init 4 (fun i () ->
              Atomic.incr started;
              while Atomic.get started < 4 do
                Domain.cpu_relax ()
              done;
              i)
        in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          [| 0; 1; 2; 3 |] (Domain_pool.run pool tasks);
        Alcotest.(check int)
          (Printf.sprintf "round %d: 3 tasks per batch on spawned domains"
             round)
          (3 * round) (Domain_pool.steals pool)
      done)

let test_pool_reuse () =
  Domain_pool.with_pool ~domains:3 (fun pool ->
      let ran = Atomic.make 0 in
      for round = 1 to 5 do
        let tasks =
          Array.init 20 (fun i () ->
              Atomic.incr ran;
              (round * 100) + i)
        in
        let results = Domain_pool.run pool tasks in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.init 20 (fun i -> (round * 100) + i))
          results
      done;
      Alcotest.(check int) "5 rounds of 20" 100 (Atomic.get ran))

exception Boom of int

(* One counter per task: positional results alone cannot show a task
   that ran twice, or a slot filled by a task that never ran. 1000 tasks
   of random length with a random failure set, on 1 to 4 domains. *)
let test_pool_exactly_once () =
  let rng = Random.State.make [| 25 |] in
  for domains = 1 to 4 do
    for round = 1 to 3 do
      let n = 1000 in
      let work = Array.init n (fun _ -> Random.State.int rng 5_000) in
      let fails = Array.init n (fun _ -> Random.State.int rng 50 = 0) in
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      let tasks =
        Array.init n (fun i () ->
            Atomic.incr runs.(i);
            ignore (Sys.opaque_identity (spin work.(i)));
            if fails.(i) then raise (Boom i) else i)
      in
      let what = Printf.sprintf "%d domains, round %d" domains round in
      (match
         Domain_pool.with_pool ~domains (fun pool -> Domain_pool.run pool tasks)
       with
      | results ->
          Alcotest.(check bool) (what ^ ": no failure drawn") false
            (Array.exists Fun.id fails);
          Alcotest.(check (array int)) (what ^ ": results")
            (Array.init n Fun.id) results
      | exception Boom i ->
          let lowest =
            let rec go j = if fails.(j) then j else go (j + 1) in
            go 0
          in
          Alcotest.(check int) (what ^ ": lowest failure") lowest i);
      Array.iteri
        (fun i c ->
          if Atomic.get c <> 1 then
            Alcotest.failf "%s: task %d ran %d times" what i (Atomic.get c))
        runs
    done
  done

let test_pool_exception () =
  Domain_pool.with_pool ~domains:4 (fun pool ->
      let tasks =
        Array.init 30 (fun i () -> if i mod 10 = 3 then raise (Boom i) else i)
      in
      (match Domain_pool.run pool tasks with
      | _ -> Alcotest.fail "expected the batch to raise"
      | exception Boom i ->
          Alcotest.(check int) "lowest-indexed failure wins" 3 i);
      (* The failure did not kill the pool. *)
      let results = Domain_pool.run pool (Array.init 8 (fun i () -> -i)) in
      Alcotest.(check (array int))
        "pool survives a failed batch"
        (Array.init 8 (fun i -> -i))
        results)

(* The caller is a pool participant: with one domain every task — the
   failing one included — runs on the caller's own stack, and the failure
   contract (raise after the batch drains, pool survives) must hold there
   too, not only on spawned domains. *)
let test_pool_caller_exception () =
  Domain_pool.with_pool ~domains:1 (fun pool ->
      let ran = ref 0 in
      let tasks =
        Array.init 6 (fun i () ->
            incr ran;
            if i = 2 then raise (Boom i) else i)
      in
      (match Domain_pool.run pool tasks with
      | _ -> Alcotest.fail "expected the batch to raise"
      | exception Boom i -> Alcotest.(check int) "caller-task failure" 2 i);
      Alcotest.(check int) "every task still ran" 6 !ran;
      let results = Domain_pool.run pool (Array.init 4 (fun i () -> i + 1)) in
      Alcotest.(check (array int))
        "pool survives a caller-side failure"
        [| 1; 2; 3; 4 |] results)

(* However the failures land across domains and rounds, the re-raised one
   is always the lowest-indexed — the property that makes a parallel
   irdl-opt run's exit deterministic. *)
let test_pool_multi_failure_determinism () =
  Domain_pool.with_pool ~domains:4 (fun pool ->
      for round = 1 to 10 do
        let tasks =
          Array.init 40 (fun i () ->
              if i mod 7 = 2 then raise (Boom i) else i)
        in
        match Domain_pool.run pool tasks with
        | _ -> Alcotest.fail "expected the batch to raise"
        | exception Boom i ->
            Alcotest.(check int)
              (Printf.sprintf "round %d: lowest failure index" round)
              2 i
      done;
      (* Ten failed batches later the pool still computes. *)
      let results = Domain_pool.run pool (Array.init 16 (fun i () -> i * 3)) in
      Alcotest.(check (array int))
        "pool survives ten failed batches"
        (Array.init 16 (fun i -> i * 3))
        results)

let test_pool_sequential_degenerate () =
  Domain_pool.with_pool ~domains:1 (fun pool ->
      let order = ref [] in
      let tasks =
        Array.init 10 (fun i () ->
            order := i :: !order;
            i)
      in
      let results = Domain_pool.run pool tasks in
      Alcotest.(check (array int))
        "results" (Array.init 10 Fun.id) results;
      Alcotest.(check (list int))
        "a 1-domain pool runs tasks in order on the caller"
        [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
        (List.rev !order);
      Alcotest.(check int) "no domain spawned" 0 (Domain_pool.steals pool))

let test_pool_reentrant () =
  Domain_pool.with_pool ~domains:2 (fun pool ->
      match
        Domain_pool.run pool
          [| (fun () -> Domain_pool.run pool [| (fun () -> 0) |]) |]
      with
      | _ -> Alcotest.fail "re-entrant run must raise"
      | exception Invalid_argument _ -> ())

let test_pool_bad_size () =
  match Domain_pool.with_pool ~domains:0 Fun.id with
  | _ -> Alcotest.fail "0-domain pool must be rejected"
  | exception Invalid_argument _ -> ()

(* ---------------------------------------------------------------- *)
(* Freeze lifecycle                                                  *)
(* ---------------------------------------------------------------- *)

let dummy_type_def name =
  {
    Context.td_dialect = "x";
    td_name = name;
    td_summary = "";
    td_num_params = 0;
    td_verify = (fun _ -> Ok ());
  }

let test_freeze_rejects () =
  let ctx = cmath_ctx () in
  Alcotest.(check bool) "starts open" false (Context.is_frozen ctx);
  Context.freeze ctx;
  Context.freeze ctx;
  (* idempotent *)
  Alcotest.(check bool) "frozen" true (Context.is_frozen ctx);
  (match Context.register_type ctx (dummy_type_def "t") with
  | () -> Alcotest.fail "post-freeze register_type must raise"
  | exception Diag.Error_exn d ->
      check_err_containing "frozen register" "frozen"
        (Error d : (unit, _) result));
  (* Lookups still work after the rejection. *)
  Alcotest.(check bool)
    "cmath.complex still registered" true
    (Option.is_some (Context.lookup_type ctx ~dialect:"cmath" ~name:"complex"))

let test_freeze_rejects_dialect_load () =
  let ctx = cmath_ctx () in
  Context.freeze ctx;
  let r = Irdl_core.Irdl.load_one ctx "Dialect fresh {}" in
  check_err_containing "load into frozen context" "frozen"
    (match r with Ok _ -> Ok () | Error d -> Error d)

(* A registration racing the freeze must either complete before it or be
   cleanly rejected after it — never corrupt the context. *)
let test_freeze_register_race () =
  for _round = 1 to 50 do
    let ctx = Context.create () in
    let registrar =
      Domain.spawn (fun () ->
          match Context.register_type ctx (dummy_type_def "t") with
          | () -> `Registered
          | exception Diag.Error_exn d -> `Rejected (Diag.to_string d))
    in
    Context.freeze ctx;
    (match Domain.join registrar with
    | `Registered ->
        Alcotest.(check bool)
          "completed registration is visible" true
          (Option.is_some (Context.lookup_type ctx ~dialect:"x" ~name:"t"))
    | `Rejected msg ->
        Alcotest.(check bool)
          "rejection names the frozen context" true
          (let lower = String.lowercase_ascii msg in
           let needle = "frozen" in
           let rec go i =
             i + String.length needle <= String.length lower
             && (String.sub lower i (String.length needle) = needle
                || go (i + 1))
           in
           go 0);
        Alcotest.(check bool)
          "rejected registration left nothing behind" true
          (Option.is_none (Context.lookup_type ctx ~dialect:"x" ~name:"t")));
    (* Either way the context stays usable. *)
    Alcotest.(check bool) "frozen afterwards" true (Context.is_frozen ctx)
  done

(* ---------------------------------------------------------------- *)
(* Hammering a frozen context from N domains                         *)
(* ---------------------------------------------------------------- *)

let valid_module =
  String.concat "\n"
    [
      {|%a = "cmath.constant"() {value = 1.0 : f32} : () -> !cmath.complex<f32>|};
      {|%b = "cmath.mul"(%a, %a) : (!cmath.complex<f32>, !cmath.complex<f32>) -> !cmath.complex<f32>|};
      {|%n = "cmath.norm"(%b) : (!cmath.complex<f32>) -> f32|};
    ]

let invalid_module = {|%x = "cmath.norm"() : () -> f32|}

(* Parse + verify both modules [iters] times against [ctx]; the result
   fingerprint must be identical on every domain. *)
let hammer ctx iters () =
  let ok = ref 0 and errs = ref 0 in
  for _ = 1 to iters do
    (match Parser.parse_ops ctx valid_module with
    | Error d -> Alcotest.failf "valid module: %s" (Diag.to_string d)
    | Ok ops -> (
        match Verifier.verify_ops_all ctx ops with
        | [] -> incr ok
        | ds -> Alcotest.failf "valid module: %d diags" (List.length ds)));
    match Parser.parse_ops ctx invalid_module with
    | Error d -> Alcotest.failf "invalid module: %s" (Diag.to_string d)
    | Ok ops -> errs := !errs + List.length (Verifier.verify_ops_all ctx ops)
  done;
  (!ok, !errs)

let test_hammer_frozen_context () =
  let ctx = cmath_ctx () in
  Context.freeze ctx;
  let baseline = hammer ctx 50 () in
  let results =
    Domain_pool.with_pool ~domains:4 (fun pool ->
        Domain_pool.run pool (Array.init 8 (fun _ -> hammer ctx 50)))
  in
  Array.iteri
    (fun i r ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "domain task %d agrees with single-domain run" i)
        baseline r)
    results

(* Interned construction across domains: every domain builds the same
   attribute; physical identity is per-domain, structural equality and
   re-interned ids agree everywhere. *)
let test_cross_domain_interning () =
  let local = complex_f32 in
  let remote =
    Domain_pool.with_pool ~domains:4 (fun pool ->
        Domain_pool.run pool
          (Array.init 6 (fun _ () ->
               Attr.dynamic ~dialect:"cmath" ~name:"complex"
                 [ Attr.typ Attr.f32 ])))
  in
  Array.iter
    (fun ty ->
      Alcotest.(check bool)
        "structurally equal across domains" true
        (Attr.equal_ty local ty);
      Alcotest.(check int)
        "re-interning a foreign value converges on the local id"
        (Attr.id_ty local) (Attr.id_ty ty))
    remote

(* ---------------------------------------------------------------- *)
(* Signature-memo shards                                             *)
(* ---------------------------------------------------------------- *)

(* A domain's counts outlive it: D cold domains verifying one module
   each add D times what one cold domain adds, entries included. *)
let test_shard_stats_merge () =
  let ctx = cmath_ctx () in
  Context.freeze ctx;
  ignore (hammer ctx 10 ());
  (* Spawn domains directly (rather than through a pool): the shared task
     counter could let a fast caller drain the whole batch, and this test
     needs every run to start from a cold shard. *)
  let delta domains =
    let before = (Context.stats ctx).st_verify in
    Array.init domains (fun _ -> Domain.spawn (hammer ctx 1))
    |> Array.iter (fun d -> ignore (Domain.join d));
    let after = (Context.stats ctx).st_verify in
    let entries (s : Context.verify_stats) = s.vs_names + s.vs_sigs in
    ( entries after - entries before,
      (after.vs_hits - before.vs_hits, after.vs_misses - before.vs_misses) )
  in
  let entries, (hits, misses) = delta 1 in
  Alcotest.(check bool) "a cold run misses" true (misses > 0);
  Alcotest.(check bool) "an exited domain's entries are added" true
    (entries > 0);
  Alcotest.(check (pair int (pair int int)))
    "3 cold domains = 3 x one cold domain"
    (3 * entries, (3 * hits, 3 * misses))
    (delta 3)

(* An open context verifies uncached, on any domain. *)
let test_cache_disabled_bypasses_shards () =
  let ctx = cmath_ctx () in
  ignore (hammer ctx 5 ());
  Array.init 2 (fun _ -> Domain.spawn (hammer ctx 5))
  |> Array.iter (fun d -> ignore (Domain.join d));
  let merged = (Context.stats ctx).st_verify in
  Alcotest.(check int) "no entries in any shard" 0
    (merged.vs_names + merged.vs_sigs);
  Alcotest.(check int) "no hits counted" 0 merged.vs_hits;
  Alcotest.(check int) "no misses counted" 0 merged.vs_misses

(* No table of an exited domain stays reachable: neither its uniquer
   shard nor its verify-cache shard, whose memo holds the signature of an
   op it verified. *)
let test_exited_domain_tables_freed () =
  let ctx = Context.create () in
  let _ =
    check_ok "load arith"
      (Irdl_core.Irdl.load_one ctx Irdl_dialects.Arith.source)
  in
  Context.freeze ctx;
  let probe i () =
    let only = Attr.string (Printf.sprintf "only-in-domain-%d" i) in
    let value = Attr.int ~ty:Attr.i64 (Int64.of_int (1_000_000 + i)) in
    verify_ok ctx
      (Irdl_ir.Graph.Op.create ~result_tys:[ Attr.i64 ]
         ~attrs:[ ("value", value) ] "arith.constant");
    let memoized = (Context.stats ctx).st_verify.vs_sigs > 0 in
    let w = Weak.create 2 in
    Weak.set w 0 (Some only);
    Weak.set w 1 (Some value);
    (w, memoized)
  in
  let probes = List.init 100 (fun i -> Domain.join (Domain.spawn (probe i))) in
  Gc.full_major ();
  List.iteri
    (fun i (w, memoized) ->
      Alcotest.(check bool) "the op was memoized" true memoized;
      if Weak.check w 0 || Weak.check w 1 then
        Alcotest.failf "domain %d's attributes outlived it" i)
    probes

let suite =
  [
    tc "pool: empty batch" test_pool_empty;
    tc "pool: positional results" test_pool_positional;
    tc "pool: unbalanced batch (stealing)" test_pool_unbalanced;
    tc "pool: reusable across batches" test_pool_reuse;
    tc "pool: lowest-index exception, pool survives" test_pool_exception;
    tc "pool: caller-task exception" test_pool_caller_exception;
    tc "pool: multi-failure determinism across rounds"
      test_pool_multi_failure_determinism;
    tc "pool: 1 domain degrades to sequential" test_pool_sequential_degenerate;
    tc "pool: a batch spawns its own domains" test_pool_spawns_per_batch;
    tc "pool: re-entrant run rejected" test_pool_reentrant;
    tc "pool: size < 1 rejected" test_pool_bad_size;
    tc "pool: each task runs exactly once" test_pool_exactly_once;
    tc "freeze: post-freeze registration rejected" test_freeze_rejects;
    tc "freeze: dialect load rejected" test_freeze_rejects_dialect_load;
    tc "freeze: register-vs-freeze race is clean" test_freeze_register_race;
    tc "frozen context: N domains agree with 1" test_hammer_frozen_context;
    tc "interning: cross-domain construction" test_cross_domain_interning;
    tc "verify cache: merged stats = sum of shards" test_shard_stats_merge;
    tc "verify cache: disabled bypasses all shards"
      test_cache_disabled_bypasses_shards;
    tc "exited domains: their tables are freed" test_exited_domain_tables_freed;
  ]
