(** Differential tests for the op signature memo: verification with a
    frozen context's memo must give exactly the diagnostics an open
    context, which records nothing, gives, whatever an op shares with an
    op verified before it. *)

open Irdl_ir
open Util
module R = Irdl_core.Resolve
module S = Irdl_core.Skeleton

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let diag_strings ds = List.map Irdl_support.Diag.to_string ds

let memo_stats ctx = (Context.stats ctx).st_verify

(* A frozen context of its own: verifying with it moves the calling
   domain's shard off any other context, so that context's next use
   starts cold. *)
let elsewhere = lazy (frozen (Context.create ()))

let cool () =
  ignore (Verifier.verify_all (Lazy.force elsewhere) (Graph.Op.create "t.cool"))

(* [verify_all] with the frozen [ctx]'s memo warm, with the open
   [reference], which records nothing, and with [ctx] again from cold. *)
let verdicts ~reference ctx m =
  let warm = diag_strings (Verifier.verify_all ctx m) in
  let off = diag_strings (Verifier.verify_all reference m) in
  cool ();
  let cold = diag_strings (Verifier.verify_all ctx m) in
  (warm, off, cold)

(* ---------------------------------------------------------------- *)
(* Skeleton ops from the corpus, mutated                             *)
(* ---------------------------------------------------------------- *)

type template = { name : string; make : unit -> Graph.op }

type corpus = {
  ctx : Context.t;  (** frozen *)
  reference : Context.t;  (** open, the same dialects *)
  all : template array;
  with_regions : template array;
  terminators : template array;
}

let corpus =
  lazy
    (let ctx = Context.create () and reference = Context.create () in
     let dls = check_ok "corpus" (Irdl_dialects.Corpus.load_all ctx) in
     ignore (check_ok "corpus" (Irdl_dialects.Corpus.load_all reference));
     Context.freeze ctx;
     let find_dl name =
       List.find_opt (fun (dl : R.dialect) -> dl.dl_name = name) dls
     in
     let lookup ~kind ~dialect ~name =
       Option.bind (find_dl dialect) (fun (dl : R.dialect) ->
           let defs =
             match kind with `Type -> dl.dl_types | `Attr -> dl.dl_attrs
           in
           List.find_opt (fun (td : R.typedef) -> td.td_name = name) defs)
     in
     let op_lookup ~dialect ~name =
       Option.bind (find_dl dialect) (fun (dl : R.dialect) ->
           List.find_opt (fun (o : R.op) -> o.op_name = name) dl.dl_ops)
     in
     let templates =
       List.concat_map
         (fun (dl : R.dialect) ->
           List.filter_map
             (fun (rop : R.op) ->
               let make () =
                 S.instantiate_op ~lookup ~op_lookup ~dialect:dl.dl_name rop
               in
               match make () with
               | Error _ -> None
               | Ok sample ->
                   Some
                     ( { name = sample.Graph.op_name;
                         make = (fun () -> Result.get_ok (make ())) },
                       sample ))
             dl.dl_ops)
         dls
     in
     let pick f =
       Array.of_list
         (List.filter_map (fun (t, s) -> if f s then Some t else None)
            templates)
     in
     {
       ctx;
       reference;
       all = pick (fun _ -> true);
       with_regions = pick (fun (s : Graph.op) -> s.regions <> []);
       terminators = pick (fun s -> Verifier.is_terminator ctx s);
     })

type mutation =
  | Clean
  | Drop_attr
  | Swap_type of int
  | Terminator_before of int  (** a terminator placed mid-block *)
  | Extra_block  (** a second block in the first region *)
  | Drop_region_terminator
  | Op_after_region_terminator
  | Swap_region_arg of int
  | Add_region_arg
  | Drop_region
  | Empty_region  (** the first region loses its blocks *)
  | Add_successor  (** the enclosing block as a successor *)

let type_pool = [| Attr.i1; Attr.i32; Attr.f64; Attr.index |]

let pp_mutation = function
  | Clean -> "clean"
  | Drop_attr -> "drop-attr"
  | Swap_type i -> Printf.sprintf "swap-type %d" i
  | Terminator_before i -> Printf.sprintf "terminator-before %d" i
  | Extra_block -> "extra-block"
  | Drop_region_terminator -> "drop-region-terminator"
  | Op_after_region_terminator -> "op-after-region-terminator"
  | Swap_region_arg i -> Printf.sprintf "swap-region-arg %d" i
  | Add_region_arg -> "add-region-arg"
  | Drop_region -> "drop-region"
  | Empty_region -> "empty-region"
  | Add_successor -> "add-successor"

let entry_block (op : Graph.op) =
  match op.regions with r :: _ -> Graph.Region.entry r | [] -> None

let mutate c (op : Graph.op) blk = function
  | Clean -> ()
  | Drop_attr -> (
      match op.attrs with
      | (name, _) :: _ -> Graph.Op.remove_attr op name
      | [] -> ())
  | Swap_type i ->
      let ty = type_pool.(i mod Array.length type_pool) in
      if Graph.Op.num_results op > 0 then (Graph.Op.result op 0).v_ty <- ty
      else if Graph.Op.num_operands op > 0 then
        (Graph.Op.operand op 0).v_ty <- ty
  | Terminator_before i ->
      let t = c.terminators.(i mod Array.length c.terminators) in
      Graph.Block.append blk (t.make ())
  | Extra_block -> (
      match op.regions with
      | r :: _ -> Graph.Region.add_block r (Graph.Block.create ())
      | [] -> ())
  | Drop_region_terminator -> (
      match Option.bind (entry_block op) Graph.Block.terminator with
      | Some last -> Graph.detach last
      | None -> ())
  | Op_after_region_terminator -> (
      match entry_block op with
      | Some b -> Graph.Block.append b (Graph.Op.create "test.filler")
      | None -> ())
  | Swap_region_arg i -> (
      match entry_block op with
      | Some b when Graph.Block.num_args b > 0 ->
          (Graph.Block.arg b 0).v_ty <- type_pool.(i mod Array.length type_pool)
      | _ -> ())
  | Add_region_arg -> (
      match entry_block op with
      | Some b -> ignore (Graph.Block.add_arg b Attr.i32)
      | None -> ())
  | Drop_region -> (
      match op.regions with _ :: rest -> op.regions <- rest | [] -> ())
  | Empty_region -> (
      match op.regions with
      | _ :: rest ->
          let r = Graph.Region.create () in
          r.reg_parent <- Some op;
          op.regions <- r :: rest
      | [] -> ())
  | Add_successor -> op.successors <- [ blk ]

(* One block holding each instance after its detached operand
   placeholders, mutated as asked. *)
let build c picks =
  let blk = Graph.Block.create () in
  List.iter
    (fun ((t : template), mutation) ->
      let op = t.make () in
      Graph.Op.iter_operands op ~f:(fun v ->
          match Graph.Value.defining_op v with
          | Some p when p.op_parent = None -> Graph.Block.append blk p
          | _ -> ());
      mutate c op blk mutation;
      Graph.Block.append blk op)
    picks;
  Graph.Op.create
    ~regions:[ Graph.Region.create ~blocks:[ blk ] () ]
    "test.module"

let gen_picks c =
  let open QCheck2.Gen in
  let template =
    oneof
      [
        oneofa c.all; oneofa c.with_regions; oneofa c.terminators;
      ]
  in
  let mutation =
    frequency
      [
        (2, pure Clean);
        (1, pure Drop_attr);
        (1, map (fun i -> Swap_type i) nat);
        (1, map (fun i -> Terminator_before i) nat);
        (1, pure Extra_block);
        (1, pure Drop_region_terminator);
        (1, pure Op_after_region_terminator);
        (1, map (fun i -> Swap_region_arg i) nat);
        (1, pure Add_region_arg);
        (1, pure Drop_region);
        (1, pure Empty_region);
        (1, pure Add_successor);
      ]
  in
  (* A few mutated templates repeated through the module: each copy is
     clean, mutated as its pool entry, or mutated afresh, so most ops repeat
     a signature the memo has seen. *)
  let* k = int_range 1 4 in
  let* pool = list_repeat k (pair template mutation) in
  let pick =
    let* t, m = oneofl pool in
    map (fun m -> (t, m)) (oneof [ pure Clean; pure m; mutation ])
  in
  list_size (int_range 1 12) pick

let print_picks picks =
  String.concat "; "
    (List.map (fun ((t : template), m) -> t.name ^ " " ^ pp_mutation m) picks)

(* The corpus loads on the first generated case, not when the suite list
   is built. *)
let memo_differential =
  let gen = QCheck2.Gen.(pure () >>= fun () -> gen_picks (Lazy.force corpus)) in
  QCheck2.Test.make ~name:"memo on and off give identical diagnostics"
    ~count:1000 ~print:print_picks gen (fun picks ->
      let c = Lazy.force corpus in
      let warm, off, cold =
        verdicts ~reference:c.reference c.ctx (build c picks)
      in
      if warm = off && cold = off then true
      else
        QCheck2.Test.fail_reportf
          "memo on (warm):@.%s@.memo off:@.%s@.memo on (cold):@.%s"
          (String.concat "\n" warm) (String.concat "\n" off)
          (String.concat "\n" cold))

(* ---------------------------------------------------------------- *)
(* Unit tests                                                        *)
(* ---------------------------------------------------------------- *)

let loop body =
  Printf.sprintf
    {|"cmath.range_loop"(%%lb, %%lb, %%lb) ({
  ^body(%%iv: i32):
%s
  }) : (i32, i32, i32) -> ()|}
    body

let term = {|    "cmath.range_loop_terminator"() : () -> ()|}

(* Each later op repeats the first one's signature exactly, and breaks one
   rule that the signature does not show. *)
let hit_still_checks_structure () =
  let ctx = frozen (cmath_ctx ()) in
  let src =
    String.concat "\n"
      [
        {|"func.func"() ({|};
        {|^bb0(%lb: i32):|};
        loop term;
        loop {|    "t.other"() : () -> ()|};
        loop (term ^ "\n" ^ {|    "t.after"() : () -> ()|});
        term;
        loop term;
        {|}) : () -> ()|};
      ]
  in
  let m = parse_op ctx src in
  let before = memo_stats ctx in
  let warm, off, cold = verdicts ~reference:(cmath_ctx ()) ctx m in
  Alcotest.(check bool) "the broken ops were memo hits" true
    ((memo_stats ctx).vs_hits > before.vs_hits);
  Alcotest.(check (list string)) "memo on = memo off" off warm;
  Alcotest.(check (list string)) "cold memo = memo off" off cold;
  let expect needle =
    Alcotest.(check bool) needle true
      (List.exists (fun d -> contains d needle) warm)
  in
  expect "must end with 'cmath.range_loop_terminator', found 't.other'";
  expect "must end with 'cmath.range_loop_terminator', found 't.after'";
  expect "terminator 'cmath.range_loop_terminator' must be the last operation"

(* No entry block and an entry block are different signatures, even where
   the empty region is valid. *)
let empty_region_is_its_own_signature () =
  let ctx =
    frozen (fst (load_dialect {|Dialect d { Operation o { Region body { } } }|}))
  in
  let op ~args =
    let r =
      if args = [] then Graph.Region.create ()
      else
        Graph.Region.create ~blocks:[ Graph.Block.create ~arg_tys:args () ] ()
    in
    Graph.Op.create ~regions:[ r ] "d.o"
  in
  verify_ok ctx (op ~args:[]);
  verify_err ~containing:"region argument" ctx (op ~args:[ Attr.i32 ]);
  Alcotest.(check int) "no memo hit" 0 (memo_stats ctx).vs_hits

let hook_fires_on_hit () =
  let native = Irdl_core.Native.create () in
  Irdl_core.Native.register_op_hook native "notOnLine3($_self)"
    (fun (op : Graph.op) -> op.op_loc.start_pos.line <> 3);
  let ctx = Context.create () in
  let _ =
    check_ok "load"
      (Irdl_core.Irdl.load_one ~native ctx
         {|Dialect d {
             Operation o {
               Results (r: !i32)
               CppConstraint "notOnLine3($_self)"
             }
           }|})
  in
  Context.freeze ctx;
  let src =
    String.concat ""
      (List.map
         (fun v -> Printf.sprintf "%%%s = \"d.o\"() : () -> i32\n" v)
         [ "a"; "b"; "c" ])
  in
  let ops = check_ok "parse" (Parser.parse_ops ctx src) in
  let diags = diag_strings (Verifier.verify_ops_all ctx ops) in
  let s = memo_stats ctx in
  Alcotest.(check int) "two memo hits" 2 s.vs_hits;
  match diags with
  | [ d ] ->
      Alcotest.(check bool) "rejects line 3" true
        (contains d ":3:" && contains d "violates native constraint")
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let two_domains_agree () =
  let ctx = cmath_ctx () in
  let body =
    String.concat "\n"
      (List.init 50 (fun i ->
           Printf.sprintf
             {|  %%n%d = "cmath.norm"(%%p) : (!cmath.complex<f32>) -> %s|} i
             (if i mod 7 = 3 then "f64" else "f32")))
  in
  let src =
    String.concat "\n"
      [
        {|"func.func"() ({|};
        {|^bb0(%lb: i32, %p: !cmath.complex<f32>):|};
        body;
        loop term;
        loop {|    "t.other"() : () -> ()|};
        {|}) : () -> ()|};
      ]
  in
  let m = parse_op ctx src in
  let off = diag_strings (Verifier.verify_all ctx m) in
  Context.freeze ctx;
  let run () = diag_strings (Verifier.verify_all ctx m) in
  let memo_hits () = (memo_stats ctx).vs_hits in
  let h0 = memo_hits () in
  let here = run () in
  let h1 = memo_hits () in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.(check bool) "some diagnostics" true (off <> []);
  Alcotest.(check (list string)) "calling domain = memo off" off here;
  Alcotest.(check (list string)) "domain 1 = memo off" off r1;
  Alcotest.(check (list string)) "domain 2 = memo off" off r2;
  (* Every run starts from a cold shard, so each domain hits its own memo
     as often as the calling domain did. *)
  Alcotest.(check bool) "the calling domain hit its memo" true (h1 > h0);
  Alcotest.(check int) "each domain hit its memo" (2 * (h1 - h0))
    (memo_hits () - h1)

let memo_is_bounded () =
  let ctx = Context.create () in
  let _ =
    check_ok "load arith"
      (Irdl_core.Irdl.load_one ctx Irdl_dialects.Arith.source)
  in
  Context.freeze ctx;
  for i = 1 to 10_000 do
    verify_ok ctx
      (Graph.Op.create ~result_tys:[ Attr.i64 ]
         ~attrs:[ ("value", Attr.int ~ty:Attr.i64 (Int64.of_int i)) ]
         "arith.constant")
  done;
  let kept (s : Context.verify_stats) = s.vs_names + s.vs_sigs in
  let s = memo_stats ctx in
  Alcotest.(check int) "one entry" 1 s.vs_names;
  Alcotest.(check bool) "signatures within the bound" true
    (kept s <= Context.memo_max);
  Alcotest.(check int) "every constant missed" 10_000 s.vs_misses;
  for i = 1 to 10_000 do
    verify_ok ctx
      (Graph.Op.create ~result_tys:[ Attr.i64 ] (Printf.sprintf "u%d.x" i))
  done;
  let s = memo_stats ctx in
  Alcotest.(check bool) "names and signatures within the bound" true
    (kept s <= Context.memo_max)

(* Minor words [verify_all] allocates per op once every op's signature is
   in the memo. *)
let words_per_op ctx ops =
  let verify () =
    Array.iter
      (fun op ->
        match Verifier.verify_all ctx op with
        | [] -> ()
        | d :: _ ->
            Alcotest.failf "unexpected: %s" (Irdl_support.Diag.to_string d))
      ops
  in
  verify ();
  let before = Gc.minor_words () in
  verify ();
  (Gc.minor_words () -. before) /. float_of_int (Array.length ops)

let check_budget what words =
  if words > 2. then
    Alcotest.failf "%s: %.1f minor words per op, budget 2" what words

(* Region-less registered ops with a dynamic operand type and an array
   attribute, and unregistered leaves, all memo hits: the hit path and the
   unregistered path allocate nothing but the measurement itself. *)
let verify_allocation_budget () =
  let ctx = cmath_ctx () in
  let _ =
    check_ok "load arith"
      (Irdl_core.Irdl.load_one ctx Irdl_dialects.Arith.source)
  in
  Context.freeze ctx;
  let src = Graph.Op.create ~result_tys:[ complex_f32 ] "t.src" in
  let c = Graph.Op.result src 0 in
  let value = Attr.array [ Attr.int 1L; Attr.int 2L ] in
  let hits =
    Array.init 10_000 (fun i ->
        if i land 1 = 0 then
          Graph.Op.create ~operands:[ c ] ~result_tys:[ Attr.f32 ] "cmath.norm"
        else
          Graph.Op.create ~result_tys:[ Attr.i64 ] ~attrs:[ ("value", value) ]
            "arith.constant")
  in
  check_budget "registered memo hits" (words_per_op ctx hits);
  let leaves =
    Array.init 10_000 (fun _ ->
        Graph.Op.create ~result_tys:[ Attr.i32 ] "test.source")
  in
  check_budget "unregistered leaves" (words_per_op ctx leaves)

(* More live signatures than the memo holds: it keeps the ones it
   recorded first, so those still hit: newest-first eviction would miss on
   every op of the cycle. *)
let memo_does_not_thrash () =
  let ctx = frozen (Context.create ()) in
  let tys =
    Array.init (Context.memo_max + 8) (fun i -> Attr.integer (i + 1))
  in
  let round () =
    Array.iter
      (fun ty -> verify_ok ctx (Graph.Op.create ~result_tys:[ ty ] "u.x"))
      tys
  in
  round ();
  let s0 = memo_stats ctx in
  for _ = 1 to 10 do
    round ()
  done;
  let s = memo_stats ctx in
  let hits = s.vs_hits - s0.vs_hits
  and misses = s.vs_misses - s0.vs_misses in
  Alcotest.(check bool)
    (Printf.sprintf "at least half hit (%d hits, %d misses)" hits misses)
    true (hits >= misses);
  Alcotest.(check int) "the name and signatures stay at the bound"
    Context.memo_max (s.vs_names + s.vs_sigs)

(* One unregistered placeholder name with 39 result types, the hot ones
   visited most, as the placeholders of a generated module are: each type
   misses once, every later visit hits, and a warm repeat allocates
   nothing. Type [j] is visited [39 - j] times, in rounds that drop the
   coldest type each time. *)
let placeholder_types_hit () =
  let ctx = frozen (Context.create ()) in
  let n = 39 in
  let tys = Array.init n (fun j -> Attr.integer (j + 1)) in
  let ops =
    Array.of_list
      (List.concat_map
         (fun r ->
           List.init (n - r) (fun j ->
               Graph.Op.create ~result_tys:[ tys.(j) ] "test.source"))
         (List.init n Fun.id))
  in
  let visits = Array.length ops and failed = ref false in
  let verify_each () =
    for i = 0 to visits - 1 do
      match Verifier.verify_op ctx ops.(i) with
      | Ok () -> ()
      | Error _ -> failed := true
    done
  in
  let s0 = memo_stats ctx in
  verify_each ();
  let s = memo_stats ctx in
  Alcotest.(check int) "visits" (n * (n + 1) / 2) visits;
  Alcotest.(check int) "one miss per type" n
    (s.vs_misses - s0.vs_misses);
  Alcotest.(check int) "every later visit hits" (visits - n)
    (s.vs_hits - s0.vs_hits);
  let before = Gc.minor_words () in
  verify_each ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "all verified" false !failed;
  Alcotest.(check (float 0.)) "a warm repeat allocates nothing" 0. words;
  Alcotest.(check int) "no miss when warm" 0
    ((memo_stats ctx).vs_misses - s.vs_misses)

(* ---------------------------------------------------------------- *)
(* Op handles                                                        *)
(* ---------------------------------------------------------------- *)

(* An open context records nothing, so a definition registered after an
   op was parsed and verified is the one the op verifies against. *)
let parsed_before_registration () =
  let ctx = Context.create () in
  let src = {|%a = "d3.x"() : () -> i32|} in
  let before = parse_op ctx src in
  verify_ok ctx before;
  verify_ok ctx before;
  let _ =
    check_ok "load d3"
      (Irdl_core.Irdl.load_one ctx
         {|Dialect d3 { Operation x { Results (r: !f32) } }|})
  in
  verify_err ~containing:"'d3.x': result 'r'" ctx before;
  verify_err ~containing:"'d3.x': result 'r'" ctx (parse_op ctx src);
  verify_ok ctx (parse_op ctx {|%b = "d3.x"() : () -> f32|})

(* One name, a different definition in each context: the domain's name
   table is shared by both, each op's handle is not. *)
let two_contexts_in_turn () =
  let load result =
    frozen
      (fst
         (load_dialect
            (Printf.sprintf "Dialect d4 { Operation x { Results (r: !%s) } }"
               result)))
  in
  let ci32 = load "i32" and cf32 = load "f32" in
  let src = {|%a = "d4.x"() : () -> i32|} in
  let from_i32 = parse_op ci32 src and from_f32 = parse_op cf32 src in
  for _ = 1 to 3 do
    verify_ok ci32 from_i32;
    verify_err ~containing:"'d4.x': result 'r'" cf32 from_i32;
    verify_ok ci32 from_f32;
    verify_err ~containing:"'d4.x': result 'r'" cf32 from_f32
  done

(* An open context is the uncached reference: a parsed op verified and
   printed twice keeps the fresh entry the reader gave it, with no verdict,
   tail or handle, and the counters stay at zero. *)
let open_context_records_nothing () =
  let ctx = cmath_ctx () in
  let op =
    parse_op ctx
      {|%a = "t.src"() {k = "v"} : () -> !cmath.complex<f32>|}
  in
  let e = op.op_sig in
  let printed =
    List.init 2 (fun _ ->
        verify_ok ctx op;
        Printer.op_to_string ~generic:true ctx op)
  in
  Alcotest.(check (list string)) "printed twice alike"
    (List.init 2 (fun _ ->
         {|%0 = "t.src"() {k = "v"} : () -> (!cmath.complex<f32>)|}))
    printed;
  Alcotest.(check bool) "the same entry" true (op.op_sig == e);
  Alcotest.(check int) "no verdict" 0 e.sg_ok;
  Alcotest.(check string) "no tail" "" e.sg_tail;
  Alcotest.(check bool) "no handle" true (e.sg_handle == Graph.unresolved);
  let s = memo_stats ctx in
  Alcotest.(check (list int)) "no names, signatures, hits or misses"
    [ 0; 0; 0; 0 ]
    [ s.vs_names; s.vs_sigs; s.vs_hits; s.vs_misses ]

(* [op] in generic form with the memo on reads as with it off, on an open
   context: nothing prints from the rendering its signature had before a
   change. *)
let memo_off = lazy (Context.create ())

let prints_as_memo_off ctx op =
  Alcotest.(check string) "printed as with the memo off"
    (Printer.op_to_string ~generic:true (Lazy.force memo_off) op)
    (Printer.op_to_string ~generic:true ctx op)

(* Verify and print [op] with its entry's verdict and tail recorded, change
   it with [change], then check that it verifies ([ok]) or not and prints
   as with the memo off. *)
let changed ?containing ctx op ~ok change =
  verify_ok ctx op;
  verify_ok ctx op;
  ignore (Printer.op_to_string ~generic:true ctx op);
  change ();
  prints_as_memo_off ctx op;
  if ok then verify_ok ctx op else verify_err ?containing ctx op;
  prints_as_memo_off ctx op

(* A changed op is compared again, field by field: nothing trusts the
   signature it had when it was last verified or printed. *)
let changed_op_verifies_its_new_signature () =
  let ctx = cmath_ctx () in
  let _ =
    check_ok "load d6"
      (Irdl_core.Irdl.load_one ctx
         {|Dialect d6 {
             Operation c { Attributes (v: !i32) }
             Operation r { Region body { } }
           }|})
  in
  Context.freeze ctx;
  let c32 = Graph.Op.create ~result_tys:[ complex_f32 ] "t.src"
  and c64 = Graph.Op.create ~result_tys:[ complex_f64 ] "t.src" in
  let norm () =
    Graph.Op.create ~operands:[ Graph.Op.result c32 0 ]
      ~result_tys:[ Attr.f32 ] "cmath.norm"
  in
  let rauw = norm () in
  changed ctx rauw ~ok:false (fun () ->
      Graph.Value.replace_all_uses ~from:(Graph.Op.result c32 0)
        ~to_:(Graph.Op.result c64 0));
  let set = norm () in
  changed ctx set ~ok:false (fun () ->
      Graph.Op.set_operand set 0 (Graph.Op.result c64 0));
  let c () = Graph.Op.create ~attrs:[ ("v", Attr.typ Attr.i32) ] "d6.c" in
  let set = c () in
  changed ~containing:"'d6.c'" ctx set ~ok:false (fun () ->
      Graph.Op.set_attr set "v" (Attr.typ Attr.f32));
  Graph.Op.set_attr set "v" (Attr.typ Attr.i32);
  verify_ok ctx set;
  prints_as_memo_off ctx set;
  let assigned = c () in
  changed ~containing:"'d6.c'" ctx assigned ~ok:false (fun () ->
      assigned.attrs <- [ ("v", Attr.typ Attr.f64) ]);
  let removed = c () in
  changed ~containing:"requires attribute 'v'" ctx removed ~ok:false
    (fun () -> Graph.Op.remove_attr removed "v");
  let entry = Graph.Block.create () in
  let r =
    Graph.Op.create ~regions:[ Graph.Region.create ~blocks:[ entry ] () ]
      "d6.r"
  in
  changed ~containing:"region argument" ctx r ~ok:false (fun () ->
      ignore (Graph.Block.add_arg entry Attr.i32))

(* A forward reference takes the type its use declares and is patched to
   its definition's later, after the reader gave the using op the entry of
   the declared signature: here one that verified and printed already. *)
let forward_patch_after_the_entry () =
  let ctx = frozen (cmath_ctx ()) in
  let norm32 =
    {|%a = "t.src"() : () -> !cmath.complex<f32>
%n = "cmath.norm"(%a) : (!cmath.complex<f32>) -> f32
|}
  and patched =
    {|%m = "cmath.norm"(%x) : (!cmath.complex<f32>) -> f32
%x = "t.src"() : () -> !cmath.complex<f64>
|}
  in
  let check what ops =
    Alcotest.(check int) (what ^ ": one error") 1
      (List.length (Verifier.verify_ops_all ctx ops));
    List.iter (prints_as_memo_off ctx) ops
  in
  let verified = check_ok "parse" (Parser.parse_ops ctx norm32) in
  Alcotest.(check int) "valid" 0
    (List.length (Verifier.verify_ops_all ctx verified));
  List.iter (fun op -> ignore (Printer.op_to_string ~generic:true ctx op)) verified;
  check "parsed" (check_ok "parse" (Parser.parse_ops ctx patched));
  (* The decoder gives [%m] the entry of [%n]'s key before it reads [%x]. *)
  let both = check_ok "parse" (Parser.parse_ops ctx (norm32 ^ patched)) in
  let blob = check_ok "encode" (Irdl_bytecode.Bytecode.Write.module_to_string both) in
  check "decoded" (check_ok "decode" (Irdl_bytecode.Bytecode.read_module ctx blob))

(* Parsed ops: every name past the bound verifies on the full path, and
   the shard keeps exactly the bound. *)
let distinct_names_stay_at_the_bound () =
  let ctx = Context.create ~allow_unregistered:false () in
  let _ =
    check_ok "load d7"
      (Irdl_core.Irdl.load_one ctx
         {|Dialect d7 { Operation x { Results (r: !i32) } }|})
  in
  Context.freeze ctx;
  let n = 10_000 in
  let src =
    String.concat "\n"
      (List.init n (fun i -> Printf.sprintf {|"u%d.x"() : () -> ()|} i))
  in
  let ops = check_ok "parse" (Parser.parse_ops ctx src) in
  let errors = Verifier.verify_ops_all ctx ops in
  Alcotest.(check int) "every unregistered op rejected" n (List.length errors);
  let last = Printf.sprintf "unregistered operation 'u%d.x'" (n - 1) in
  Alcotest.(check bool) "the last one too" true
    (contains (Irdl_support.Diag.to_string (List.nth errors (n - 1))) last);
  let s = memo_stats ctx in
  Alcotest.(check int) "names at the bound" Context.memo_max s.vs_names;
  Alcotest.(check int) "no signature recorded" 0 s.vs_sigs;
  let ok = parse_op ctx {|%a = "d7.x"() : () -> i32|} in
  verify_ok ctx ok;
  verify_ok ctx ok;
  let bad = parse_op ctx {|%b = "d7.x"() : () -> f32|} in
  verify_err ~containing:"'d7.x': result 'r'" ctx bad;
  Alcotest.(check int) "still at the bound" Context.memo_max
    (memo_stats ctx).vs_names

(* ---------------------------------------------------------------- *)
(* Whole modules                                                     *)
(* ---------------------------------------------------------------- *)

let func blk =
  Graph.Op.create ~regions:[ Graph.Region.create ~blocks:[ blk ] () ] "t.func"

(* 300 rounds of cmath.mul, cmath.norm and an unregistered t.v, the muls
   and t.vs carrying 8 shared payloads of 32 dynamic attributes. A mul's
   signature is its payload (i mod 8), a t.v's its BoundedVector size
   (i mod 16). A warm re-verify hits the memo on every op, and gives the
   open context's verdict. *)
let warm_module_hits_the_memo () =
  let payloads =
    Array.init 8 (fun k ->
        Attr.array
          (List.init 32 (fun j ->
               Attr.dyn_attr ~dialect:"cmath" ~name:"StringAttr"
                 [ Attr.opaque ~tag:"StringParam" (Printf.sprintf "s%d_%d" k j) ])))
  in
  let fn_ty =
    Attr.function_ty ~inputs:(List.init 8 (fun _ -> complex_f32))
      ~outputs:[ Attr.f32 ]
  in
  let u32 = Attr.integer ~signedness:Attr.Unsigned 32 in
  let blk = Graph.Block.create ~arg_tys:[ complex_f32; complex_f32 ] () in
  let last = ref (Graph.Block.arg blk 0) in
  for i = 0 to 299 do
    let mul =
      Graph.Op.create ~operands:[ !last; Graph.Block.arg blk 1 ]
        ~result_tys:[ complex_f32 ] ~attrs:[ ("payload", payloads.(i mod 8)) ]
        "cmath.mul"
    in
    last := Graph.Op.result mul 0;
    let bv =
      Attr.dynamic ~dialect:"cmath" ~name:"BoundedVector"
        [ Attr.typ Attr.f32; Attr.int ~ty:u32 (Int64.of_int (i mod 16)) ]
    in
    List.iter (Graph.Block.append blk)
      [
        mul;
        Graph.Op.create ~operands:[ !last ] ~result_tys:[ Attr.f32 ] "cmath.norm";
        Graph.Op.create ~result_tys:[ bv; fn_ty ]
          ~attrs:[ ("payload", payloads.((i + 3) mod 8)) ] "t.v";
      ]
  done;
  let ctx = frozen (cmath_ctx ()) and m = func blk in
  let verdict ctx = diag_strings (Verifier.verify_all ctx m) in
  Alcotest.(check (list string)) "cold" [] (verdict ctx);
  let cold = memo_stats ctx in
  Alcotest.(check (list string)) "warm" [] (verdict ctx);
  let warm = memo_stats ctx in
  let hits = 300 + 1 + 300 + 300 in
  Alcotest.(check int) "memo hits" hits (warm.vs_hits - cold.vs_hits);
  Alcotest.(check int) "memo misses" (901 - hits)
    (warm.vs_misses - cold.vs_misses);
  Alcotest.(check (list string)) "memo off" [] (verdict (cmath_ctx ()))

(* A 10^4-op t.add/t.mul chain prints, parses back to the same text and
   verifies with a memo hit on every op but the first of each signature;
   10^4 t.adds with 64 distinct value-numbering keys leave CSE 64 ops, all
   dead. *)
let ten_thousand_ops () =
  let n = 10_000 and ctx = frozen (Context.create ()) in
  let block make =
    let blk = Graph.Block.create ~arg_tys:[ Attr.i32; Attr.i32 ] () in
    let a = Graph.Block.arg blk 0 and b = Graph.Block.arg blk 1 in
    let prev = ref a in
    for i = 1 to n do
      let op = make i !prev a b in
      Graph.Block.append blk op;
      prev := Graph.Op.result op 0
    done;
    func blk
  in
  let chain =
    block (fun i prev _ b ->
        Graph.Op.create ~operands:[ prev; b ] ~result_tys:[ Attr.i32 ]
          (if i land 1 = 0 then "t.add" else "t.mul"))
  in
  let text = Printer.op_to_string ctx chain in
  let parsed = parse_op ctx text in
  Alcotest.(check bool) "printed back" true
    (String.equal text (Printer.op_to_string ctx parsed));
  let before = memo_stats ctx in
  verify_ok ctx parsed;
  let s = memo_stats ctx in
  Alcotest.(check int) "memo hits" (n - 2) (s.vs_hits - before.vs_hits);
  Alcotest.(check int) "memo misses" 3 (s.vs_misses - before.vs_misses);
  let dups =
    block (fun i _ a b ->
        Graph.Op.create ~operands:[ a; b ] ~result_tys:[ Attr.i32 ]
          ~attrs:[ ("k", Attr.int (Int64.of_int (i mod 64))) ] "t.add")
  in
  let cse = Irdl_rewrite.Cse.run ctx dups in
  Alcotest.(check int) "examined" n (Irdl_rewrite.Cse.examined cse);
  Alcotest.(check int) "eliminated" (n - 64) (Irdl_rewrite.Cse.eliminated cse);
  Alcotest.(check int) "dead" 64
    (Irdl_rewrite.Rewriter.dce (Irdl_rewrite.Rewriter.create ctx dups));
  verify_ok ctx dups

let suite =
  [
    QCheck_alcotest.to_alcotest memo_differential;
    tc "a memo hit still checks structure and region terminators"
      hit_still_checks_structure;
    tc "an empty region is its own signature"
      empty_region_is_its_own_signature;
    tc "an op hook rejecting by location fires on a memo hit" hook_fires_on_hit;
    tc "an open context records nothing" open_context_records_nothing;
    tc "two domains give the memo-off verdicts" two_domains_agree;
    tc "the memo stays within its caps" memo_is_bounded;
    tc "memo hits and unregistered leaves allocate nothing"
      verify_allocation_budget;
    tc "a name with more signatures than slots still hits"
      memo_does_not_thrash;
    tc "39 placeholder types each miss once" placeholder_types_hit;
    tc "an op parsed before its dialect verifies against it"
      parsed_before_registration;
    tc "two contexts in turn use their own definitions" two_contexts_in_turn;
    tc "a changed op verifies its new signature"
      changed_op_verifies_its_new_signature;
    tc "a forward reference patched after its op got an entry"
      forward_patch_after_the_entry;
    tc "distinct names leave the memo at its bound"
      distinct_names_stay_at_the_bound;
    tc "a warm 900-op cmath module verifies from the caches"
      warm_module_hits_the_memo;
    tc "10^4 ops print, parse, verify, CSE and DCE" ten_thousand_ops;
  ]
