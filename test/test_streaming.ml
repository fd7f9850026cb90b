(** The chunk driver ({!Irdl_bytecode.Frontend.run}) differentially
    against the materializing oracle ([Parser.parse_ops] or
    [Bytecode.read_module], then [Verifier.verify_ops_all] and the printer):
    same verdict, byte-identical printed IR, identical diagnostics (order
    included) — in both driver modes (release each op, or keep the ops for
    a pipeline), for text and bytecode payloads, across hand-written
    inputs, error-recovery inputs and generated 10^3..10^4-op modules. Plus
    the streaming parser's own semantics the driver relies on. *)

open Irdl_support
module Attr = Irdl_ir.Attr
module Graph = Irdl_ir.Graph
module Context = Irdl_ir.Context
module Parser = Irdl_ir.Parser
module Printer = Irdl_ir.Printer
module Verifier = Irdl_ir.Verifier
module Bytecode = Irdl_bytecode.Bytecode
module Frontend = Irdl_bytecode.Frontend
module Source = Frontend.Source

let messages e =
  List.map (fun (d : Diag.t) -> Diag.to_string d) (Diag.Engine.diagnostics e)

(* The oracle: materialize the whole payload, verify it as one module and
   print it. The driver's contract, spelled out: verify diagnostics follow
   the parse diagnostics and are dropped on a parse failure; output only
   when nothing failed. *)
let oracle ~verify ctx payload =
  let engine = Diag.Engine.create () in
  let ops =
    match payload with
    | Source.Text (s, window) -> Parser.parse_ops ~engine ~window ctx s
    | Source.Binary b -> Bytecode.read_module ~engine ctx b
  in
  let ops = Result.value ops ~default:[] in
  let parse_failed = Diag.Engine.error_count engine > 0 in
  let vdiags =
    if parse_failed || not verify then [] else Verifier.verify_ops_all ctx ops
  in
  List.iter (Diag.Engine.emit engine) vdiags;
  let output =
    if parse_failed || vdiags <> [] then None
    else Some (Printer.ops_to_string ctx ops)
  in
  (parse_failed, vdiags <> [], messages engine, output, List.length ops)

(* The driver over the same payload into a text sink. With [keep], a
   pipeline that records how many ops it was given and reports nothing. *)
let driver ~verify ~keep ctx payload =
  let engine = Diag.Engine.create () in
  let seen = ref (-1) in
  let pipeline =
    if keep then
      Some
        (fun ops ->
          seen := List.length ops;
          [])
    else None
  in
  let r =
    Frontend.run ~engine ~verify ~sink:(Frontend.Sink.text ctx) ?pipeline ctx
      payload
  in
  (r, messages engine, Option.map Frontend.Sink.contents r.output, !seen)

let check_payload ?(verify = true) ~keep ctx name payload =
  let name = name ^ if keep then " (keep ops)" else " (release ops)" in
  let o_pf, o_vf, o_msgs, o_out, o_count = oracle ~verify ctx payload in
  let r, msgs, out, seen = driver ~verify ~keep ctx payload in
  Alcotest.(check bool) (name ^ ": parse failed") o_pf r.parse_failed;
  Alcotest.(check bool) (name ^ ": verify failed") o_vf r.verify_failed;
  Alcotest.(check (list string)) (name ^ ": diagnostics") o_msgs msgs;
  Alcotest.(check (option string)) (name ^ ": printed IR") o_out out;
  if keep && not (o_pf || o_vf) then
    Alcotest.(check int) (name ^ ": pipeline saw every op") o_count seen

(* Both driver modes over [src] against the oracle. *)
let check_differential ?(ctx = Context.create ()) ?verify name src =
  List.iter
    (fun keep -> check_payload ?verify ~keep ctx name (Source.classify src))
    [ false; true ]

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

(* Releasing ops keeps only the value records alive: after draining a
   generated module, re-running the next one still works (no poisoned
   state in the context). *)
let sessions_are_independent () =
  let ctx = Context.create () in
  let payload = Source.classify (generated 1_000) in
  let run () =
    let _, _, out, _ = driver ~verify:true ~keep:false ctx payload in
    out
  in
  let t1 = run () in
  Alcotest.(check bool) "first session prints" true (t1 <> None);
  Alcotest.(check (option string)) "same text across sessions" t1 (run ())

(* ---------------- driver: cmath, ~verify:false, pipelines ---------------- *)

let cmath_src =
  "%c = \"cmath.constant\"() {value = 2.0 : f32} : () -> !cmath.complex<f32>\n\
   %m = \"cmath.mul\"(%c, %c) : (!cmath.complex<f32>, !cmath.complex<f32>) \
   -> !cmath.complex<f32>\n"

let bad_verify_src = "%bad = \"cmath.norm\"() : () -> f32\n"

(* Three failing ops around good ones: the verify diagnostics must come
   out in [merge_diags] order, not in drain order. *)
let bad_verify_many =
  "%b1 = \"cmath.norm\"() : () -> f32\n" ^ cmath_src
  ^ "%b2 = \"cmath.mul\"(%c) : (!cmath.complex<f32>) -> !cmath.complex<f32>\n\
     %b3 = \"cmath.norm\"(%c, %c) : (!cmath.complex<f32>, \
     !cmath.complex<f32>) -> f32\n"

(* Encode [src] (which must parse) as one bytecode document. *)
let to_bytecode ctx src =
  Util.check_ok "emit"
    (Bytecode.Write.module_to_string
       (Util.check_ok "parse" (Parser.parse_ops ctx src)))

let cmath_payloads () =
  let ctx = Util.cmath_ctx () in
  List.iter
    (fun (name, src) ->
      check_differential ~ctx ("text " ^ name) src;
      let payload = Source.classify (to_bytecode ctx src) in
      Alcotest.(check bool) (name ^ ": sniffed as bytecode") true
        (Source.is_binary payload);
      List.iter
        (fun keep -> check_payload ~keep ctx ("bytecode " ^ name) payload)
        [ false; true ])
    [
      ("clean", cmath_src);
      ("verify error", bad_verify_src);
      ("verify errors", bad_verify_many);
    ]

let verify_off () =
  let ctx = Util.cmath_ctx () in
  check_differential ~ctx ~verify:false "verify off"
    (cmath_src ^ bad_verify_src);
  (* The module fails to verify, yet with verification off it prints. *)
  let r, msgs, out, _ =
    driver ~verify:false ~keep:false ctx (Source.classify bad_verify_src)
  in
  Alcotest.(check (list string)) "no diagnostics" [] msgs;
  Alcotest.(check bool) "not failed" false (r.parse_failed || r.verify_failed);
  Alcotest.(check bool) "printed" true (out <> None)

(* A pipeline runs only after a clean verify, over the ops in document
   order; what it reports is a verify failure and suppresses the output. *)
let pipeline_mode () =
  let ctx = Util.cmath_ctx () in
  let run ?(report = []) src =
    let engine = Diag.Engine.create () in
    let names = ref [] in
    let pipeline ops =
      names := List.map (fun (op : Graph.op) -> op.op_name) ops;
      report
    in
    let r =
      Frontend.run ~engine ~verify:true ~sink:(Frontend.Sink.text ctx)
        ~pipeline ctx (Source.classify src)
    in
    (r, messages engine, !names)
  in
  let r, _, names = run cmath_src in
  Alcotest.(check (list string)) "ops in order"
    [ "cmath.constant"; "cmath.mul" ] names;
  Alcotest.(check bool) "clean run prints" true (r.output <> None);
  let r, _, names = run (cmath_src ^ bad_verify_src) in
  Alcotest.(check (list string)) "not run after a verify failure" [] names;
  Alcotest.(check bool) "verify failed" true r.verify_failed;
  let r, msgs, _ = run ~report:[ Diag.make "pass failed" ] cmath_src in
  Alcotest.(check bool) "pipeline report is a verify failure" true
    (r.verify_failed && not r.parse_failed);
  Alcotest.(check (list string)) "report emitted" [ "error: pass failed" ] msgs;
  Alcotest.(check bool) "no output" true (r.output = None)

(* ---------------- unified stats / sources ---------------- *)

let stats_scopes () =
  let ctx = Util.frozen (Context.create ()) in
  let src =
    "%0 = \"t.make\"() : () -> !t.box\n\
     %1 = \"t.use\"(%0) : (!t.box) -> !t.box\n"
  in
  let ops = Result.get_ok (Parser.parse_ops ctx src) in
  let verify () = ignore (Verifier.verify_ops_all ctx ops) in
  verify ();
  let here = Context.stats ctx in
  Alcotest.(check bool) "the calling domain's shard has entries" true
    (here.st_verify.vs_sigs > 0);
  Alcotest.(check bool) "the uniquer is counted" true
    (here.st_uniquing.us_types.nodes > 0);
  (* Two domains each verify from a cold shard and exit: the one record
     adds their lookups and their entries, as many as the calling
     domain's shard holds for the same ops. *)
  let lookups (s : Context.stats) = s.st_verify.vs_hits + s.st_verify.vs_misses in
  let spawned () =
    let before = Context.stats ctx in
    Domain.join (Domain.spawn verify);
    let after = Context.stats ctx in
    Alcotest.(check int) "an exited domain's entries are added"
      here.st_verify.vs_sigs
      (after.st_verify.vs_sigs - before.st_verify.vs_sigs);
    lookups after - lookups before
  in
  let first = spawned () in
  Alcotest.(check bool) "an exited domain's lookups are counted" true
    (first > 0);
  Alcotest.(check int) "and counted once" first (spawned ())

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

(* The open file descriptors of this process. *)
let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

(* A detached op with a string attribute of [n] bytes: its printed length
   grows with [n] one for one. *)
let padded n =
  Graph.Op.create ~attrs:[ ("s", Attr.string (String.make n 'a')) ] "t.pad"

(* Both ways out of a sink must give exactly [Printer.ops_to_string]:
   [close], and [close_output] then [write_output] into a file. Neither
   leaves a file descriptor open. The result says whether the sink had
   moved its pages into a file before it was closed. *)
let check_sink name ops =
  let ctx = Context.create () in
  let expect = Printer.ops_to_string ctx ops in
  let sink () =
    let s = Sink.text ctx in
    List.iter (Sink.push s) ops;
    s
  in
  let fds = fd_count () in
  let s = sink () in
  let spilled = fd_count () > fds in
  Alcotest.(check string)
    (name ^ ": close") expect
    (Result.get_ok (Sink.close s));
  let out = Result.get_ok (Sink.close_output (sink ())) in
  let path = Filename.temp_file "irdl-sink" ".out" in
  Out_channel.with_open_bin path (fun oc -> Sink.write_output oc out);
  let written = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check string) (name ^ ": write_output") expect written;
  Alcotest.(check int) (name ^ ": no file left open") fds (fd_count ());
  spilled

(* Ops whose output is exactly [n] bytes long (n >= 100 * 11 + 9). *)
let output_of_length n =
  let ctx = Context.create () in
  let head = List.init 100 (fun _ -> padded 10) in
  let len ops = String.length (Printer.ops_to_string ctx ops) in
  let ops = head @ [ padded (n - len (head @ [ padded 0 ])) ] in
  Alcotest.(check int) "output length" n (len ops);
  ops

let paged_sink () =
  let held name ops =
    Alcotest.(check bool) (name ^ ": held in memory") false
      (check_sink name ops)
  in
  held "empty module" [];
  held "one op" [ padded 3 ];
  (* Past four pages, they move into a file. *)
  Alcotest.(check bool) "more than four pages: spilled" true
    (check_sink "more than four pages"
       (List.init 6_000 (fun i ->
            Graph.Op.create ~result_tys:[ Attr.i32 ]
              ~attrs:[ ("v", Attr.int (Int64.of_int i)) ]
              "t.x")));
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
  Alcotest.(check bool) "the long op fills a page" true
    (String.length (Printer.op_to_string (Context.create ()) big) > page);
  held "one op longer than a page" [ padded 1; big; padded 2 ];
  (* The output ends exactly on the page boundary: the sink cuts its one
     page and holds nothing more. *)
  held "ends on a page boundary" (output_of_length page)

(* Around [Sink.spill_after]. [output_of_length] ends on one long op, so
   the last push cuts the whole output as one page: it moves into a file
   iff the output is longer than the threshold. *)
let spilling_sink () =
  let spill = Sink.spill_after in
  let check name n expect =
    Alcotest.(check bool)
      (name ^ ": spilled") expect
      (check_sink name (output_of_length n))
  in
  check "just below the threshold" (spill - 1) false;
  check "at the threshold" spill false;
  check "one byte past the threshold" (spill + 1) true;
  check "one page past the threshold" (spill + page) true;
  Alcotest.(check bool) "many pages spill" true
    (check_sink "many pages"
       (List.init 60_000 (fun i ->
            Graph.Op.create ~result_tys:[ Attr.i32 ]
              ~attrs:[ ("v", Attr.int (Int64.of_int i)) ]
              "t.x")))

(* About 450 KB of printed output: more than [Sink.spill_after]. *)
let large_src =
  String.concat ""
    (List.init 12_000 (fun i ->
         Printf.sprintf "%%%d = \"test.source\"() : () -> (i32)\n" i))

(* A chunk that spills and then fails closes its file: the last op does
   not verify, or an armed [verify:K] failpoint fires on it. *)
let failing_spill_leaks_nothing () =
  let ctx = Util.frozen (Util.cmath_ctx ()) in
  let run src =
    let engine = Diag.Engine.create () in
    let r =
      Frontend.run ~engine ~verify:true ~sink:(Frontend.Sink.text ctx) ctx
        (Source.classify src)
    in
    Alcotest.(check bool) "verify failed" true r.verify_failed;
    Alcotest.(check bool) "no output" true (r.output = None)
  in
  let fds = fd_count () in
  let clean =
    let engine = Diag.Engine.create () in
    Frontend.run ~engine ~verify:true ~sink:(Frontend.Sink.text ctx) ctx
      (Source.classify large_src)
  in
  Alcotest.(check int) "the clean chunk's output holds its file" (fds + 1)
    (fd_count ());
  Alcotest.(check int)
    "the clean chunk prints" (String.length large_src - 1)
    (String.length (Frontend.Sink.contents (Option.get clean.output)));
  Alcotest.(check int) "read once, the file is closed" fds (fd_count ());
  for _ = 1 to 50 do
    run (large_src ^ bad_verify_src)
  done;
  Alcotest.(check int) "invalid last op" fds (fd_count ());
  Fun.protect ~finally:Failpoints.clear (fun () ->
      Alcotest.(check bool) "arm" true
        (Result.is_ok (Failpoints.configure "verify:12000"));
      for _ = 1 to 50 do
        run large_src
      done);
  Alcotest.(check int) "verify:K failpoint" fds (fd_count ())

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
    Alcotest.test_case "differential: cmath text and bytecode payloads" `Quick
      cmath_payloads;
    Alcotest.test_case "differential: ~verify:false" `Quick verify_off;
    Alcotest.test_case "driver: pipeline mode" `Quick pipeline_mode;
    Alcotest.test_case "Context.stats scopes" `Quick stats_scopes;
    Alcotest.test_case "Diag.Sources.drop" `Quick sources_drop;
    Alcotest.test_case "paged sink: pages join to ops_to_string" `Quick
      paged_sink;
    Alcotest.test_case "spilling sink: output around the threshold" `Quick
      spilling_sink;
    Alcotest.test_case "a spilled chunk that fails leaks no descriptor" `Quick
      failing_spill_leaks_nothing;
  ]
