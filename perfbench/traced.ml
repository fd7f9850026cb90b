(* The traced in-process run: each workload replayed through the same
   public calls irdl-opt and the server make, with a span around every call
   into a layer. The untraced mode runs the identical code with spans
   disabled, so the two wall times give the tracing overhead.

   This replays the drivers of bin/irdl_opt.ml and Server.serve_unix; it
   adds no instrumentation inside the libraries. *)

module Frontend = Irdl_bytecode.Frontend
module Source = Frontend.Source
module Bytecode = Irdl_bytecode.Bytecode
module Diag = Irdl_support.Diag
module Harness = Irdl_support.Diag_harness
module Pool = Irdl_support.Domain_pool
module Monotonic = Irdl_support.Monotonic
module Context = Irdl_ir.Context
module Verifier = Irdl_ir.Verifier
module Server = Irdl_server.Server
module Wire = Irdl_server.Wire
module Sp = Spans

let span = Sp.with_span

(* Counters, added to from any domain. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 32
let counters_lock = Mutex.create ()

let count name v =
  Mutex.protect counters_lock (fun () ->
      Hashtbl.replace counters name
        (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.))

let counter name = Option.value (Hashtbl.find_opt counters name) ~default:0.

(* Words allocated by the calling domain so far. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let problems = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

(* Ops pulled from a stream per parser span: the one-shot driver parses,
   verifies and prints one op at a time; the replay does the same calls a
   batch at a time, so a span covers enough work to be worth recording. *)
let batch = 1024

(* Drain [payload] through the streaming frontend as
   [process_chunk_stream] does: parse (or decode), verify each op, push it
   to [sink] and release it; verification diagnostics are merged at the
   end. Returns the merged verifier diagnostics and whether parsing
   failed. *)
let stream_chunk ?id ~ctx ~engine ~file ~sink payload =
  let layer = if Source.is_binary payload then "bytecode_decode" else "parser" in
  let e0 = Diag.Engine.error_count engine in
  let session =
    span ?id layer (fun () -> Frontend.Stream.create ~file ~engine ctx payload)
  in
  (* A split chunk starts with one newline per line before it (so
     diagnostics keep their line numbers); the rate counts content only. *)
  let text = Source.contents payload in
  let pad = ref 0 in
  if not (Source.is_binary payload) then
    while !pad < String.length text && text.[!pad] = '\n' do incr pad done;
  count (layer ^ ".bytes") (float (String.length text - !pad));
  let vdiags = ref [] in
  let rec loop () =
    let ops, finished =
      span ?id layer (fun () ->
          let w0 = alloc_words () in
          let rec pull acc n =
            if n = batch then (acc, false)
            else
              match Frontend.Stream.next session with
              | Ok (Some op) -> pull (op :: acc) (n + 1)
              | Ok None | Error _ -> (acc, true)
          in
          let ops, finished = pull [] 0 in
          count (layer ^ ".alloc_words") (alloc_words () -. w0);
          count (layer ^ ".ops") (float (List.length ops));
          (List.rev ops, finished))
    in
    span ?id "verifier" (fun () ->
        List.iter (fun op -> vdiags := Verifier.verify_all ctx op :: !vdiags) ops);
    count "verifier.ops" (float (List.length ops));
    span ?id "printer" (fun () ->
        List.iter
          (fun op ->
            Option.iter (fun s -> Frontend.Sink.push s op) sink;
            Frontend.Stream.release op)
          ops);
    if not finished then loop ()
  in
  loop ();
  let parse_failed = Diag.Engine.error_count engine > e0 in
  let diags =
    if parse_failed then []
    else
      span ?id "verifier" (fun () ->
          Verifier.merge_diags (List.concat (List.rev !vdiags)))
  in
  count "verifier.diags" (float (List.length diags));
  (diags, parse_failed)

let load_corpus ctx =
  span "dialect_load" (fun () ->
      match Irdl_dialects.Corpus.load_all ~native:(Irdl_core.Native.create ()) ctx with
      | Ok dls -> dls
      | Error d -> failwith (Diag.to_string d))

let load_pack ctx ~engine file =
  let payload = span "source" (fun () -> Source.classify (read_file file)) in
  span "dialect_load" (fun () ->
      match
        Frontend.load_dialects ~native:(Irdl_core.Native.create ()) ~file ~engine
          ctx payload
      with
      | Ok dls -> dls
      | Error d -> failwith (Diag.to_string d))

let note_dialects dls =
  count "dialect_load.ops_registered"
    (float
       (List.fold_left
          (fun n (dl : Irdl_core.Resolve.dialect) -> n + List.length dl.dl_ops)
          0 dls))

(* irdl-opt --corpus --generic module.mlir, or -d corpus.irdlbc --generic
   module.irdlbc: one chunk, streamed, printed to stdout. *)
let oneshot ~workload ~dir =
  let ctx = Context.create () in
  let engine = Diag.Engine.create () in
  Diag.Engine.add_handler engine (Diag.Engine.printer Fmt.stderr);
  let binary = workload = "oneshot_bytecode" in
  note_dialects
    (if binary then load_pack ctx ~engine (Filename.concat dir "corpus.irdlbc")
     else load_corpus ctx);
  let file = if binary then "module.irdlbc" else "module.mlir" in
  let payload = span "source" (fun () -> Source.read (Filename.concat dir file)) in
  let chunks = span "source" (fun () -> Source.chunks ~split:false payload) in
  count "source.bytes" (float (String.length (Source.contents payload)));
  count "source.chunks" (float (List.length chunks));
  let outs =
    List.map
      (fun chunk ->
        let sink = Frontend.Sink.text ~generic:true ctx in
        let diags, parse_failed =
          stream_chunk ~ctx ~engine ~file ~sink:(Some sink) chunk
        in
        if parse_failed || diags <> [] then problem "%s: unexpected errors" file;
        span "printer" (fun () ->
            match Frontend.Sink.close sink with
            | Ok o -> o
            | Error d -> Diag.to_string d))
      chunks
  in
  let out = String.concat "\n// -----\n" outs ^ "\n" in
  count "printer.bytes_out" (float (String.length out));
  span "printer" (fun () ->
      Out_channel.with_open_bin (Filename.concat dir "traced.out") (fun oc ->
          output_string oc out));
  ( ctx,
    fun () ->
      if out <> read_file (Filename.concat dir "module.mlir") then
        problem "traced output differs from module.mlir" )

(* irdl-opt --corpus --split-input-file --verify-diagnostics --jobs N
   lit.mlir: chunks verified on a pool, diagnostics replayed in input order
   and matched against the annotations. *)
let lit ~dir ~jobs =
  let ctx = Context.create () in
  let engine = Diag.Engine.create () in
  note_dialects (load_corpus ctx);
  let file = "lit.mlir" in
  let payload = span "source" (fun () -> Source.read (Filename.concat dir file)) in
  let chunks =
    span "source" (fun () -> Array.of_list (Source.chunks ~split:true payload))
  in
  count "source.bytes" (float (String.length (Source.contents payload)));
  count "source.chunks" (float (Array.length chunks));
  Context.freeze ctx;
  let sources = Diag.Sources.snapshot () in
  let t_batch = ref 0L and pool_sid = ref (-1) in
  let task i chunk () =
    let parent = !pool_sid in
    let t_start = Monotonic.now_ns () in
    count "pool.wait_s" (Sp.seconds (Int64.sub t_start !t_batch));
    let r =
      span ~parent ~id:i "pool.task" (fun () ->
          Diag.Sources.preload sources;
          let worker = Diag.Engine.create () in
          let rendered = ref [] in
          Diag.Engine.add_handler worker (fun d ->
              rendered := (d, Fmt.str "%a" Diag.pp_rendered d) :: !rendered);
          let diags, _ =
            stream_chunk ~id:i ~ctx ~engine:worker ~file ~sink:None chunk
          in
          span ~id:i "diag" (fun () -> List.iter (Diag.Engine.emit worker) diags);
          List.rev !rendered)
    in
    count "pool.run_s" (Monotonic.elapsed_s t_start);
    r
  in
  let results, steals =
    span "pool" (fun () ->
        pool_sid := Sp.current ();
        Pool.with_pool ~domains:jobs (fun pool ->
            t_batch := Monotonic.now_ns ();
            let r = Pool.run pool (Array.mapi task chunks) in
            (r, Pool.steals pool)))
  in
  count "pool.tasks" (float (Array.length chunks));
  count "pool.steals" (float steals);
  let failures =
    span "diag" (fun () ->
        Array.iter (List.iter (fun (d, _) -> Diag.Engine.record engine d)) results;
        let src =
          span "source" (fun () -> Source.contents (Source.classify (read_file (Filename.concat dir file))))
        in
        let expectations, scan_errors = Harness.scan_expectations ~file src in
        let failures =
          scan_errors @ Harness.check ~expectations (Diag.Engine.diagnostics engine)
        in
        count "diag.expected" (float (List.length expectations));
        count "diag.matched"
          (float
             (List.length
                (List.filter (fun (e : Harness.expectation) -> e.exp_matched)
                   expectations)));
        failures)
  in
  ( ctx,
    fun () ->
      List.iteri
        (fun i d -> if i < 3 then problem "lit: %s" (Diag.to_string d))
        failures )

(* The resident server: each request decoded from its frame, handled on
   the pool (one request per dispatch, as serve_unix dispatches a
   connection's burst), and its response framed. *)
let server_passes = 5

let server ~dir ~jobs ~requests ~warm =
  let ctx = Context.create () in
  note_dialects (load_corpus ctx);
  Context.freeze ctx;
  let sources = Diag.Sources.snapshot () in
  let config = { Server.default_config with domains = jobs; generic = true } in
  let responses = ref [] in
  span "pool" (fun () ->
      Pool.with_pool ~domains:jobs (fun pool ->
          let one_pass ~record pass =
            List.iteri
              (fun i frame ->
                let reader = Wire.reader () in
                let rq =
                  span ~id:i "wire" (fun () ->
                      Wire.feed reader frame;
                      match Wire.poll reader with
                      | Some (Wire.Frame { header; payload; _ }) -> (
                          match Server.parse_request ~header ~payload with
                          | Ok rq -> rq
                          | Error _ -> failwith "bad request frame")
                      | _ -> failwith "bad request frame")
                in
                let t_decoded = Monotonic.now_ns () in
                let parent = Sp.current () in
                let rs =
                  span ~id:i "pool.dispatch" (fun () ->
                      (Pool.run pool
                         [|
                           (fun () ->
                             let t_start = Monotonic.now_ns () in
                             let wait = Sp.seconds (Int64.sub t_start t_decoded) in
                             let rs =
                               span ~parent ~id:i "server.handle" (fun () ->
                                   Diag.Sources.preload sources;
                                   Server.handle ctx config rq)
                             in
                             if record then begin
                               count "server.queue_wait_s" wait;
                               count "pool.wait_s" wait;
                               count "pool.run_s" (Monotonic.elapsed_s t_start)
                             end;
                             rs);
                         |]).(0))
                in
                let out = span ~id:i "wire" (fun () -> Server.response_frame rs) in
                if record then begin
                  count "wire.bytes" (float (String.length frame + String.length out));
                  count "pool.tasks" 1.;
                  responses := (pass, i, rs) :: !responses
                end)
              requests
          in
          (* The end-to-end run discards a warm-up pass; so does this one. *)
          let was = !Sp.enabled in
          Sp.enabled := false;
          one_pass ~record:false 0;
          Sp.enabled := was;
          warm ctx;
          for pass = 1 to server_passes do
            one_pass ~record:true pass
          done;
          count "pool.steals" (float (Pool.steals pool))));
  (* The check writes every response for the driver's oracle. *)
  ( ctx,
    fun () ->
      Out_channel.with_open_bin (Filename.concat dir "responses.json") (fun oc ->
          output_string oc "[\n";
          List.iteri
            (fun k (pass, i, (rs : Server.response)) ->
              Printf.fprintf oc "%s%s" (if k = 0 then "" else ",\n")
                (Gen.json_obj
                   [
                     ("pass", string_of_int pass);
                     ("index", string_of_int i);
                     ("status", Gen.json_string (Server.status_to_string rs.rs_status));
                     ("diags", Gen.json_string rs.rs_diags);
                     ("output_hex", Gen.json_string (Gen.hex rs.rs_output));
                   ]))
            (List.rev !responses);
          output_string oc "\n]\n") )

(* The frames Gen wrote to requests.frames, split by their declared
   lengths. *)
let request_frames dir =
  let s = read_file (Filename.concat dir "requests.frames") in
  let u32 off =
    (Char.code s.[off] lsl 24) lor (Char.code s.[off + 1] lsl 16)
    lor (Char.code s.[off + 2] lsl 8) lor Char.code s.[off + 3]
  in
  let rec split off acc =
    if off >= String.length s then List.rev acc
    else
      let len = 12 + u32 (off + 4) + u32 (off + 8) in
      split (off + len) (String.sub s off len :: acc)
  in
  split 0 []

(* ------------------------------------------------------------------ *)

let percentile xs p =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let n = List.length sorted in
      List.nth sorted (min (n - 1) (int_of_float (p *. float n)))

(* Side measurements for the ROADMAP's bytecode decision, made in a fresh
   process so the text parse starts as cold as the replay's decode did:
   the streaming text parse of module.mlir, and the bytecode encoding of
   the parsed module. Prints both times in seconds. *)
let side ~dir =
  let ctx = Context.create () in
  ignore (load_corpus ctx);
  let text = read_file (Filename.concat dir "module.mlir") in
  let t0 = Monotonic.now_ns () in
  let session = Irdl_ir.Parser.Stream.create ~file:"module.mlir" ctx text in
  let rec drain () =
    match Irdl_ir.Parser.Stream.next session with
    | Ok (Some op) ->
        Irdl_ir.Parser.Stream.release op;
        drain ()
    | Ok None -> ()
    | Error d -> failwith (Diag.to_string d)
  in
  drain ();
  let parse_s = Monotonic.elapsed_s t0 in
  let ops =
    match Irdl_ir.Parser.parse_ops ~file:"module.mlir" ctx text with
    | Ok ops -> ops
    | Error d -> failwith (Diag.to_string d)
  in
  let t1 = Monotonic.now_ns () in
  ignore (Bytecode.Write.module_to_string ops);
  Printf.printf "%.9g %.9g\n" parse_s (Monotonic.elapsed_s t1)

let run_side ~dir =
  let ic = Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "side"; dir |] in
  let parse_s, encode_s = Scanf.sscanf (input_line ic) " %f %f" (fun a b -> (a, b)) in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (parse_s, encode_s)
  | _ -> failwith "side measurement failed"

let run ~workload ~dir ~jobs ~traced ~out =
  Sp.enabled := traced;
  let requests =
    if workload = "server_roundtrip" then request_frames dir else []
  in
  (* The server replay restarts the clock, and the cache counters, after
     its warm-up pass. *)
  let t0 = ref (Monotonic.now_ns ()) in
  let base = ref None in
  let ctx, check =
    Sp.with_span "run" (fun () ->
        match workload with
        | "oneshot_text" | "oneshot_bytecode" -> oneshot ~workload ~dir
        | "lit_split_jobs" -> lit ~dir ~jobs
        | "server_roundtrip" ->
            server ~dir ~jobs ~requests ~warm:(fun ctx ->
                base := Some (Context.stats ctx).st_verify;
                t0 := Monotonic.now_ns ())
        | w -> failwith ("unknown workload " ^ w))
  in
  let wall = Monotonic.elapsed_s !t0 in
  Sp.enabled := false;
  check ();
  let units = if workload = "server_roundtrip" then float server_passes else 1. in
  let metrics =
    if not traced then []
    else begin
      let spans =
        List.filter (fun s -> Int64.compare s.Sp.t0 !t0 >= 0) (Sp.all ())
      in
      Sp.write_chrome (Filename.concat dir "trace.json") spans;
      let self = Sp.self_times spans in
      let self_s l = Option.value (Hashtbl.find_opt self l) ~default:0. /. units in
      let busy l =
        List.fold_left
          (fun acc s -> if Sp.layer s = l then acc +. Sp.duration s else acc)
          0. spans
      in
      let layers_s =
        Hashtbl.fold (fun l v acc -> if l = "run" then acc else acc +. v) self 0.
        /. units
      in
      let per_unit name = counter name /. units in
      let ratio a b = if b > 0. then a /. b else 0. in
      let st = Context.stats ctx in
      let hits, misses =
        match !base with
        | None -> (st.st_verify.vs_hits, st.st_verify.vs_misses)
        | Some b -> (st.st_verify.vs_hits - b.vs_hits, st.st_verify.vs_misses - b.vs_misses)
      in
      let gc = Gc.quick_stat () in
      let handles =
        List.filter_map
          (fun s -> if s.Sp.name = "server.handle" then Some (Sp.duration s) else None)
          spans
      in
      let text_parse_s, encode_s =
        if workload = "oneshot_bytecode" then run_side ~dir else (0., 0.)
      in
      (* The wall time of pool batches: the lit run's one batch, or the
         server's one dispatch per request. *)
      let pool_wall =
        List.fold_left
          (fun acc s ->
            if s.Sp.name = "pool" || s.Sp.name = "pool.dispatch" then
              acc +. Sp.duration s
            else acc)
          0. spans
      in
      (* Dialect loading is set-up: reported whole, also on the server,
         whose replay starts its clock after it. *)
      let dialect_load_s =
        List.fold_left
          (fun acc s -> if s.Sp.name = "dialect_load" then acc +. Sp.duration s else acc)
          0. (Sp.all ())
      in
      [
        ("parser.self_s", self_s "parser");
        ("parser.mb_per_s", ratio (counter "parser.bytes" /. 1e6) (busy "parser"));
        ("parser.alloc_words_per_op",
          ratio (counter "parser.alloc_words") (counter "parser.ops"));
        ("bytecode_decode.self_s", self_s "bytecode_decode");
        ("bytecode_decode.mb_per_s",
          ratio (counter "bytecode_decode.bytes" /. 1e6) (busy "bytecode_decode"));
        ("bytecode_decode.alloc_words_per_op",
          ratio (counter "bytecode_decode.alloc_words") (counter "bytecode_decode.ops"));
        ("bytecode_decode.speedup_vs_text", ratio text_parse_s (busy "bytecode_decode"));
        ("dialect_load.self_s", dialect_load_s);
        ("dialect_load.ops_registered", counter "dialect_load.ops_registered");
        ("verifier.self_s", self_s "verifier");
        ("verifier.ops", per_unit "verifier.ops");
        ("verifier.diags", per_unit "verifier.diags");
        ("verifier.cache_hits", float hits /. units);
        ("verifier.cache_misses", float misses /. units);
        ("verifier.cache_hit_rate", ratio (float hits) (float (hits + misses)));
        ("intern.type_hits", float st.st_uniquing.us_types.hits);
        ("intern.type_misses", float st.st_uniquing.us_types.misses);
        ("intern.attr_hits", float st.st_uniquing.us_attrs.hits);
        ("intern.attr_misses", float st.st_uniquing.us_attrs.misses);
        ("printer.self_s", self_s "printer");
        ("printer.bytes_out", counter "printer.bytes_out");
        ("bytecode_encode.self_s", encode_s);
        ("source.self_s", self_s "source");
        ("source.bytes", counter "source.bytes");
        ("source.chunks", counter "source.chunks");
        ("diag.self_s", self_s "diag");
        ("diag.expected", counter "diag.expected");
        ("diag.matched", counter "diag.matched");
        ("pool.self_s", self_s "pool");
        ("pool.tasks", per_unit "pool.tasks");
        ("pool.steals", per_unit "pool.steals");
        ("pool.wait_s", ratio (counter "pool.wait_s") (counter "pool.tasks"));
        ("pool.run_s", per_unit "pool.run_s");
        ("pool.busy_ratio", ratio (counter "pool.run_s") (pool_wall *. float jobs));
        ("server.self_s", self_s "server");
        ("server.handle_p50_ms", 1000. *. percentile handles 0.5);
        ("server.handle_p99_ms", 1000. *. percentile handles 0.99);
        ("server.queue_wait_s", per_unit "server.queue_wait_s");
        ("wire.self_s", self_s "wire");
        ("wire.bytes", per_unit "wire.bytes");
        ("gc.minor_words", gc.minor_words);
        ("gc.major_collections", float gc.major_collections);
        ("gc.heap_top_mb",
          float (gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
        ("trace.wall_s", wall /. units);
        ("trace.coverage", ratio layers_s (wall /. units));
        ("trace.layers_s", layers_s);
      ]
    end
  in
  Out_channel.with_open_bin out (fun oc ->
      Printf.fprintf oc "{\"wall_s\": %.9g, \"problems\": [%s], \"metrics\": {%s}}\n"
        (wall /. units)
        (String.concat ", " (List.map Gen.json_string (List.rev !problems)))
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%S: %.9g" k v) metrics)))
