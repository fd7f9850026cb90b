(** The streaming frontend ({!Irdl_ir.Parser.Stream}) differentially
    against the materializing parser: same ops, byte-identical printed IR,
    identical diagnostics (order included), same fail-fast/fail-soft
    behavior — across hand-written inputs, error-recovery inputs and
    generated 10^3..10^4-op modules. Plus the release semantics the
    streaming driver relies on. *)

open Irdl_support
module Attr = Irdl_ir.Attr
module Graph = Irdl_ir.Graph
module Context = Irdl_ir.Context
module Parser = Irdl_ir.Parser
module Printer = Irdl_ir.Printer
module Verifier = Irdl_ir.Verifier

let messages e =
  List.map (fun (d : Diag.t) -> Diag.to_string d) (Diag.Engine.diagnostics e)

(* Drain a fail-soft session, mimicking irdl-opt's streaming driver: print
   each op into one printer session, collect per-op verification results,
   release, and merge the verification diagnostics at end-of-stream. *)
let drain_collect ?engine ctx src =
  let session = Parser.Stream.create ?engine ctx src in
  let printer = Printer.create ctx in
  let buf = Buffer.create 256 in
  let count = ref 0 in
  let vdiags = ref [] in
  let rec go () =
    match Parser.Stream.next session with
    | Ok None -> Ok ()
    | Error d -> Error d
    | Ok (Some op) ->
        incr count;
        vdiags := Verifier.verify_all ctx op :: !vdiags;
        if Buffer.length buf > 0 then Buffer.add_char buf '\n';
        Buffer.add_string buf (Fmt.str "%a" (Printer.pp_op printer) op);
        Parser.Stream.release op;
        go ()
  in
  let result = go () in
  ( result,
    !count,
    Buffer.contents buf,
    Verifier.merge_diags (List.concat (List.rev !vdiags)) )

(* The materializing reference for the same source. *)
let materialize ?engine ctx src =
  match Parser.parse_ops ?engine ctx src with
  | Ok ops ->
      ( Ok (),
        List.length ops,
        Printer.ops_to_string ctx ops,
        Verifier.verify_ops_all ctx ops )
  | Error d -> (Error d, 0, "", [])

(* Both paths over [src], asserting byte-identical output. Fail-soft runs
   get fresh engines whose recorded diagnostics must also agree. *)
let check_differential name src =
  let ctx = Context.create () in
  let em = Diag.Engine.create () in
  let m_res, m_count, m_text, m_vdiags = materialize ~engine:em ctx src in
  let es = Diag.Engine.create () in
  let s_res, s_count, s_text, s_vdiags = drain_collect ~engine:es ctx src in
  Alcotest.(check bool) (name ^ ": both Ok") true (m_res = Ok () && s_res = Ok ());
  Alcotest.(check int) (name ^ ": op count") m_count s_count;
  Alcotest.(check string) (name ^ ": printed IR") m_text s_text;
  Alcotest.(check (list string))
    (name ^ ": parse diagnostics")
    (messages em) (messages es);
  Alcotest.(check (list string))
    (name ^ ": verify diagnostics")
    (List.map Diag.to_string m_vdiags)
    (List.map Diag.to_string s_vdiags)

(* ---------------- hand-written inputs ---------------- *)

let well_formed () =
  check_differential "well-formed"
    "%0 = \"t.const\"() : () -> i32\n\
     %1 = \"t.add\"(%0, %0) : (i32, i32) -> i32\n\
     \"t.use\"(%1) : (i32) -> ()\n"

let regions () =
  check_differential "regions"
    "\"t.func\"() ({\n\
     ^bb0(%a: i32):\n\
    \  %0 = \"t.add\"(%a, %a) : (i32, i32) -> i32\n\
    \  \"t.ret\"(%0) : (i32) -> ()\n\
     }) : () -> ()\n\
     %x = \"t.const\"() : () -> f32\n"

let forward_refs () =
  (* %m2 is used before its definition at top level: the session must hold
     the user back until the definition patches the placeholder. *)
  check_differential "top-level forward refs"
    "%0 = \"t.use\"(%m2) : (f32) -> f32\n\
     %m2 = \"t.def\"() : () -> f32\n\
     %1 = \"t.use2\"(%0, %m2) : (f32, f32) -> f32\n"

(* N top-level uses, then their N definitions: every use waits in the
   pending queue until its definition. Both modes must stay linear in N,
   yield in document order, and report undefined values in order of
   first use. *)
let forward_heavy () =
  let n = 20_000 in
  let b = Buffer.create (n * 64) in
  for i = 0 to n - 1 do
    Printf.bprintf b "\"t.use\"(%%v%d) : (i32) -> ()\n" i
  done;
  for i = 0 to n - 1 do
    Printf.bprintf b "%%v%d = \"t.def\"() : () -> i32\n" i
  done;
  let src = Buffer.contents b in
  let ctx = Context.create () in
  let timed what f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= 1.0 then Alcotest.failf "%s took %.2f s for %d forwards" what dt n;
    r
  in
  let ops =
    timed "materializing" (fun () ->
        match Parser.parse_ops ctx src with
        | Ok ops -> ops
        | Error d -> Alcotest.fail (Diag.to_string d))
  in
  Alcotest.(check int) "materialized ops" (2 * n) (List.length ops);
  let session = Parser.Stream.create ctx src in
  let first = ref None in
  let yielded =
    timed "streaming" (fun () ->
        let rec go k =
          match Parser.Stream.next session with
          | Ok (Some op) ->
              if !first = None then
                first :=
                  Some
                    ( op.Graph.op_name,
                      Graph.Value.defining_op (Graph.Op.operand op 0) );
              Parser.Stream.release op;
              go (k + 1)
          | Ok None -> k
          | Error d -> Alcotest.fail (Diag.to_string d)
        in
        go 0)
  in
  Alcotest.(check int) "streamed ops" (2 * n) yielded;
  (match !first with
  | Some ("t.use", Some def) ->
      Alcotest.(check string) "operand patched" "t.def" def.Graph.op_name
  | _ -> Alcotest.fail "the first use must come first, its operand defined");
  let engine = Diag.Engine.create () in
  ignore
    (Parser.parse_ops ~engine ctx
       "\"t.use\"(%c) : (i32) -> ()\n\"t.use\"(%a) : (i32) -> ()\n\
        \"t.use\"(%b) : (i32) -> ()\n%a = \"t.def\"() : () -> i32\n");
  Alcotest.(check (list string))
    "undefined values in order of first use"
    [ "use of undefined value %c"; "use of undefined value %b" ]
    (List.map (fun (d : Diag.t) -> d.message) (Diag.Engine.diagnostics engine))

let error_recovery () =
  check_differential "error recovery"
    "%0 = \"t.const\"() : () -> i32\n\
     %1 = \"t.add\"(%0, %0 : (i32, i32) -> i32\n\
     \"bogus\n\
     %2 = \"t.use\"(%0) : (i32) -> ()\n\
     }\n\
     %3 = \"t.use\"(%undefined_value) : (i32) -> ()\n"

let fail_fast_error () =
  let src = "%0 = \"t.const\"() : () -> i32\n%1 = bogus\n" in
  let ctx = Context.create () in
  let expected =
    match Parser.parse_ops ctx src with
    | Error d -> Diag.to_string d
    | Ok _ -> Alcotest.fail "materializing parse unexpectedly succeeded"
  in
  let session = Parser.Stream.create ctx src in
  (* The first op parses and is yielded before the error is reached. *)
  (match Parser.Stream.next session with
  | Ok (Some op) ->
      Alcotest.(check string) "first op" "t.const" op.Graph.op_name
  | _ -> Alcotest.fail "expected the first op");
  (match Parser.Stream.next session with
  | Error d -> Alcotest.(check string) "same error" expected (Diag.to_string d)
  | Ok _ -> Alcotest.fail "expected the parse error");
  (* The session stays dead, returning the same error again. *)
  match Parser.Stream.next session with
  | Error d ->
      Alcotest.(check string) "error is sticky" expected (Diag.to_string d)
  | Ok _ -> Alcotest.fail "expected the sticky error"

(* ---------------- release semantics ---------------- *)

let release_semantics () =
  let ctx = Context.create () in
  let src =
    "%0 = \"t.def\"() : () -> i32\n%1 = \"t.use\"(%0) : (i32) -> i32\n"
  in
  let session = Parser.Stream.create ctx src in
  let first =
    match Parser.Stream.next session with
    | Ok (Some op) -> op
    | _ -> Alcotest.fail "expected first op"
  in
  let result = Graph.Op.result first 0 in
  Parser.Stream.release first;
  (match result.Graph.v_def with
  | Graph.Released -> ()
  | _ -> Alcotest.fail "released result should have v_def = Released");
  Alcotest.(check bool)
    "defining_op gone" true
    (Graph.Value.defining_op result = None);
  (* The second op still names the released value with its type intact,
     and still verifies. *)
  match Parser.Stream.next session with
  | Ok (Some op) ->
      let operand = Graph.Op.operand op 0 in
      Alcotest.(check bool) "same value record" true (operand == result);
      Alcotest.(check bool)
        "type survives release" true
        (Attr.equal_ty (Graph.Value.ty operand) Attr.i32);
      Alcotest.(check int)
        "later op verifies against released operand" 0
        (List.length (Verifier.verify_all ctx op))
  | _ -> Alcotest.fail "expected second op"

(* ---------------- generated modules ---------------- *)

(* A flat module with an error injected every [err_every] ops (0 = none):
   the generated analog of the cram error-recovery corpus. *)
let generated ?(err_every = 0) n =
  let buf = Buffer.create (n * 40) in
  Buffer.add_string buf "%v0 = \"t.const\"() : () -> i32\n";
  for i = 1 to n - 1 do
    if err_every > 0 && i mod err_every = 0 then
      Buffer.add_string buf "%e = \"t.broken\"(%v0 : (i32) -> i32\n"
    else
      Buffer.add_string buf
        (Printf.sprintf "%%v%d = \"t.%s\"(%%v%d) : (i32) -> i32\n" i
           (if i land 1 = 0 then "add" else "mul")
           (i - 1))
  done;
  Buffer.contents buf

let generated_clean () =
  List.iter
    (fun n -> check_differential (Printf.sprintf "generated %d" n) (generated n))
    [ 1_000; 10_000 ]

let generated_errors () =
  List.iter
    (fun n ->
      check_differential
        (Printf.sprintf "generated %d with errors" n)
        (generated ~err_every:97 n))
    [ 1_000; 5_000 ]

(* Streaming keeps only the value records alive: after draining a
   generated module with ops released as they come, re-verifying the next
   module still works (no poisoned state in the context). *)
let sessions_are_independent () =
  let ctx = Context.create () in
  let src = generated 1_000 in
  let _, c1, t1, _ = drain_collect ctx src in
  let _, c2, t2, _ = drain_collect ctx src in
  Alcotest.(check int) "same count across sessions" c1 c2;
  Alcotest.(check string) "same text across sessions" t1 t2

(* ---------------- unified stats / sources ---------------- *)

let stats_scopes () =
  let ctx = Context.create () in
  (* Composite (dynamic) types are what the verify cache memoizes; builtin
     leaves verify vacuously and leave no shard behind. *)
  let src =
    "%0 = \"t.make\"() : () -> !t.box\n\
     %1 = \"t.use\"(%0) : (!t.box) -> !t.box\n"
  in
  let ops = Result.get_ok (Parser.parse_ops ctx src) in
  let _ = Verifier.verify_ops_all ctx ops in
  let merged = Context.stats ctx in
  Alcotest.(check (list reject))
    "merged scope has no shard breakdown" []
    (List.map (fun _ -> ()) merged.st_verify_shards);
  let per = Context.stats ~scope:`Per_domain ctx in
  Alcotest.(check bool)
    "per-domain scope exposes shards" true
    (per.st_verify_shards <> []);
  let shard_sum =
    List.fold_left
      (fun acc (s : Context.verify_stats) -> acc + s.vs_hits + s.vs_misses)
      0 per.st_verify_shards
  in
  Alcotest.(check int)
    "shards sum to the merged counters"
    (merged.st_verify.vs_hits + merged.st_verify.vs_misses)
    shard_sum

let sources_drop () =
  Diag.Sources.register ~file:"drop-me.mlir" "contents";
  Alcotest.(check bool)
    "registered" true
    (Diag.Sources.lookup "drop-me.mlir" = Some "contents");
  Diag.Sources.drop "drop-me.mlir";
  Alcotest.(check bool)
    "dropped" true
    (Diag.Sources.lookup "drop-me.mlir" = None);
  (* Dropping an absent file is a no-op. *)
  Diag.Sources.drop "drop-me.mlir"

(* ---------------- paged text sink ---------------- *)

module Sink = Irdl_bytecode.Frontend.Sink

let page = Sink.page_size

(* A detached op with a string attribute of [n] bytes: its printed length
   grows with [n] one for one. *)
let padded n =
  Graph.Op.create ~attrs:[ ("s", Attr.string (String.make n 'a')) ] "t.pad"

(* Both ways out of a sink must give exactly [Printer.ops_to_string]. *)
let check_pages name ?pages ops =
  let ctx = Context.create () in
  let expect = Printer.ops_to_string ctx ops in
  let sink () =
    let s = Sink.text ctx in
    List.iter (Sink.push s) ops;
    s
  in
  let got = Result.get_ok (Sink.close_pages (sink ())) in
  Alcotest.(check string) (name ^ ": pages") expect (String.concat "" got);
  Alcotest.(check string)
    (name ^ ": close") expect
    (Result.get_ok (Sink.close (sink ())));
  Alcotest.(check bool) (name ^ ": no empty page") true
    (List.for_all (fun p -> p <> "") got);
  Option.iter
    (fun n -> Alcotest.(check int) (name ^ ": page count") n (List.length got))
    pages;
  got

let paged_sink () =
  ignore (check_pages "empty module" ~pages:0 []);
  ignore (check_pages "one op" ~pages:1 [ padded 3 ]);
  let many =
    List.init 6_000 (fun i ->
        Graph.Op.create ~result_tys:[ Attr.i32 ]
          ~attrs:[ ("v", Attr.int (Int64.of_int i)) ]
          "t.x")
  in
  let got = check_pages "more than four pages" many in
  Alcotest.(check bool) "more than four pages" true (List.length got > 4);
  let big =
    Graph.Op.create
      ~attrs:
        [
          ( "a",
            Attr.array (List.init 20_000 (fun i -> Attr.int (Int64.of_int i)))
          );
        ]
      "t.big"
  in
  let got =
    check_pages "one op longer than a page" [ padded 1; big; padded 2 ]
  in
  Alcotest.(check bool) "the long op fills a page" true
    (List.exists (fun p -> String.length p > page) got);
  (* Pad the last op so that the output ends exactly on the page boundary:
     the sink then cuts its one page and holds nothing more. *)
  let ctx = Context.create () in
  let head = List.init 100 (fun _ -> padded 10) in
  let len ops = String.length (Printer.ops_to_string ctx ops) in
  let base = len (head @ [ padded 0 ]) in
  let ops = head @ [ padded (page - base) ] in
  Alcotest.(check int) "output is one page long" page (len ops);
  ignore (check_pages "ends on a page boundary" ~pages:1 ops)

let suite =
  [
    Alcotest.test_case "differential: well-formed" `Quick well_formed;
    Alcotest.test_case "differential: regions" `Quick regions;
    Alcotest.test_case "differential: forward refs" `Quick forward_refs;
    Alcotest.test_case "2x10^4 top-level forward refs stay linear" `Quick
      forward_heavy;
    Alcotest.test_case "differential: error recovery" `Quick error_recovery;
    Alcotest.test_case "fail-fast: same first error, sticky" `Quick
      fail_fast_error;
    Alcotest.test_case "release: later uses survive" `Quick release_semantics;
    Alcotest.test_case "differential: generated 10^3..10^4" `Slow
      generated_clean;
    Alcotest.test_case "differential: generated with errors" `Slow
      generated_errors;
    Alcotest.test_case "sessions are independent" `Quick
      sessions_are_independent;
    Alcotest.test_case "Context.stats scopes" `Quick stats_scopes;
    Alcotest.test_case "Diag.Sources.drop" `Quick sources_drop;
    Alcotest.test_case "paged sink: pages join to ops_to_string" `Quick
      paged_sink;
  ]
