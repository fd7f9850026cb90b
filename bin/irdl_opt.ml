(* irdl-opt: the mlir-opt analog of this project.

   Loads IRDL dialect definitions (from files and/or the bundled corpus),
   then parses, verifies, transforms and re-prints an IR file — the full
   dynamic-registration flow of paper §3: no code is generated or compiled
   at any point.

   All user-facing failures flow through a diagnostic engine
   (lib/support/diag): the frontend recovers and reports every error in a
   source instead of stopping at the first, errors render with caret
   source snippets, `--max-errors` caps the flood, and `--diag-json`
   mirrors the run to a machine-readable sink. `--split-input-file`
   processes `// -----`-separated chunks independently and
   `--verify-diagnostics` checks produced diagnostics against
   `expected-error {{...}}` annotations, MLIR-style.

   `--jobs N` verifies independent chunks on N domains (at most one per
   core) over the one resident (frozen) dialect registry; `--batch` feeds
   many IR files into a single run. Workers collect diagnostics in a local
   engine, pre-render them against their own source registrations, and
   the main domain replays everything in input order — so a parallel run
   is byte-identical to `--jobs 1` (same stderr, same stdout, same exit
   code, same --diag-json). Flags whose output is inherently cross-chunk —
   --max-errors, --pass-timing[-json], the IR print-around-pass dumps —
   force the sequential path, with a warning.

   Exit codes: 0 success; 1 parse-class failure (IRDL/pattern/pipeline/IR
   parsing); 2 verify-class failure (verifier or pass failures on IR that
   parsed); 3 `--verify-diagnostics` mismatch or malformed annotation.
   Parse failures take precedence over verify failures.

   Transformations run through the instrumented pass manager
   (lib/pass): `--pass-pipeline "canonicalize,cse,dce"` names the passes;
   `--pass-timing`/`--pass-timing-json` report per-pass wall-clock time;
   `--print-ir-before/-after[-all]` snapshot the IR around passes; and
   `--verify-each` re-runs the (memoized) verifier between passes so a
   pass that breaks IR invariants is caught and attributed by name.

   Every chunk, sequential or under `--jobs`, runs through the one chunk
   driver `Frontend.run`: with no pipeline each top-level op is parsed,
   verified, printed and released as it arrives; with a pipeline the ops
   are kept for it. *)

open Cmdliner
module Diag = Irdl_support.Diag
module Harness = Irdl_support.Diag_harness
module Domain_pool = Irdl_support.Domain_pool
module Limits = Irdl_support.Limits
module Failpoints = Irdl_support.Failpoints
module Bytecode = Irdl_bytecode.Bytecode
module Frontend = Irdl_bytecode.Frontend
module Source = Frontend.Source
module Server = Irdl_server.Server

(* Output arrives as pages (see [Frontend.Sink]); they are written in
   order and never joined. *)
let write_binary path pages =
  if path = "-" then begin
    Out_channel.set_binary_mode stdout true;
    List.iter print_string pages
  end
  else begin
    let oc = open_out_bin path in
    List.iter (output_string oc) pages;
    close_out oc
  end

(* An optional header, each chunk's printed pages with a [// -----] line
   between chunks, and a final newline, written straight to stdout: the
   outputs are never joined into one more copy. Format's stdout is flushed
   first so that anything printed through it stays in order. *)
let print_outs ?header = function
  | [] -> ()
  | outs ->
      Format.pp_print_flush Format.std_formatter ();
      Option.iter print_string header;
      List.iteri
        (fun i pages ->
          if i > 0 then print_string "\n// -----\n";
          List.iter print_string pages)
        outs;
      print_char '\n';
      flush stdout

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* For failures outside any user source (bundled corpus, cmath): nothing to
   recover, nothing to annotate. *)
let fail_diag d =
  Fmt.epr "%a@." Diag.pp d;
  exit 1

let with_out_channel path f =
  if path = "-" then f Fmt.stderr
  else
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        let ppf = Format.formatter_of_out_channel oc in
        f ppf;
        Format.pp_print_flush ppf ())

(* --jobs N asks for N domains (0: the recommended count) and gets at most
   one per core: past the core count the domains only take turns, and on
   a 1-core box 4 domains parsed and verified corpus chunks 2.7x slower
   than 1. *)
let jobs_requested jobs =
  if jobs <= 0 then Domain.recommended_domain_count () else jobs

let jobs_domains jobs =
  min (jobs_requested jobs) (Domain.recommended_domain_count ())

(* GC pacing of a [--listen] server: OCaml 4's default, below 5.1's 120.
   Its serve loops allocate on several domains at once, which lets the
   major heap grow further past the few-MB live set: with 5.1's default,
   peak RSS on perfbench's two-client round trip read 23.6 MB against
   20.1 MB for one loop (+17%); with this setting, 20.4 MB. *)
let listen_space_overhead = 80

(* --batch PATH: a directory (every *.mlir / *.irdlbc in it, sorted) or a
   text file listing one IR path per line ('#' comments and blank lines
   skipped). *)
let batch_inputs path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".mlir" || Filename.check_suffix f ".irdlbc")
    |> List.sort String.compare
    |> List.map (Filename.concat path)
  else
    read_file path |> String.split_on_char '\n' |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let run dialect_files pattern_files with_corpus with_cmath input generic
    verify_only split_input_file verify_diagnostics max_errors diag_json
    pipeline verify_each print_ir_before print_ir_after
    print_ir_before_all print_ir_after_all pass_timing pass_timing_json strict
    verify_stats jobs batch emit_bytecode load_bytecode
    emit_dialect_bytecode serve listen connect failpoints_spec max_queue
    max_ops max_region_depth max_payload_bytes deadline_ms verbose =
  setup_logs verbose;
  (* Fault-injection seams, armed before anything parses. *)
  (match failpoints_spec with
  | None -> ()
  | Some spec -> (
      match Failpoints.configure spec with
      | Ok () -> ()
      | Error msg ->
          Fmt.epr "irdl-opt: --failpoints: %s@." msg;
          exit 1));
  (* Resource budgets: applied to one-shot parsing below, to every request
     of a server ([--serve]/[--listen], as the server-wide ceiling), and
     sent along with a [--connect] request. *)
  let base_limits =
    Limits.create ~max_payload_bytes ~max_ops ~max_depth:max_region_depth ()
  in
  let mode_conflict msg =
    Fmt.epr "irdl-opt: %s@." msg;
    exit 1
  in
  if serve && Option.is_some listen then
    mode_conflict "--serve and --listen are mutually exclusive";
  if Option.is_some connect && (serve || Option.is_some listen) then
    mode_conflict "--connect cannot be combined with --serve/--listen";
  if (serve || Option.is_some listen) && Option.is_some input then
    mode_conflict "--serve/--listen take no input (requests carry it)";
  (* A request carries one document and comes back printed, verified or
     emitted: flags that shape a one-shot run would be silently ignored. *)
  (let mode =
     if Option.is_some connect then Some "--connect"
     else if serve then Some "--serve"
     else if Option.is_some listen then Some "--listen"
     else None
   in
   let resident = serve || Option.is_some listen in
   let one_shot_only =
     [
       ("--batch", Option.is_some batch);
       ("--split-input-file", split_input_file);
       ("--verify-diagnostics", verify_diagnostics);
       ("--pass-pipeline", Option.is_some pipeline);
       ("-p", pattern_files <> []);
       ("--diag-json", Option.is_some diag_json);
       ("--max-errors", max_errors <> 0);
       ("--load-bytecode", load_bytecode);
       ("--pass-timing", Option.is_some pass_timing);
       ("--pass-timing-json", Option.is_some pass_timing_json);
       ("--verify-each", verify_each);
       ("--print-ir-before", print_ir_before <> []);
       ("--print-ir-after", print_ir_after <> []);
       ("--print-ir-before-all", print_ir_before_all);
       ("--print-ir-after-all", print_ir_after_all);
       (* Under --connect these two pick the request's kind. *)
       ("--emit-bytecode", resident && Option.is_some emit_bytecode);
       ("--verify-only", resident && verify_only);
     ]
   in
   match (mode, List.find_opt snd one_shot_only) with
   | Some mode, Some (flag, _) ->
       mode_conflict (Printf.sprintf "%s cannot be combined with %s" flag mode)
   | _ -> ());
  (* Client mode: one framed request against a resident server; the
     response's diagnostics (pre-rendered, byte-identical to a one-shot
     run) go to stderr, the output to stdout, and the exit code mirrors
     the one-shot convention. No dialects are loaded here — the server
     holds the registry. *)
  (match connect with
  | None -> ()
  | Some path ->
      let file = Option.value input ~default:"-" in
      let payload =
        try Source.contents (Source.read file)
        with Sys_error msg ->
          Fmt.epr "irdl-opt: %s@." msg;
          exit 1
      in
      let kind =
        if Option.is_some emit_bytecode then Server.Emit_bytecode
        else if verify_only then Server.Verify
        else Server.Print
      in
      (match
         Server.roundtrip ~path ~kind ~file ~deadline_ms ~limits:base_limits
           payload
       with
      | Error msg ->
          Fmt.epr "irdl-opt: --connect: %s@." msg;
          exit 4
      | Ok rs ->
          prerr_string rs.Server.rs_diags;
          (match emit_bytecode with
          | Some out when rs.Server.rs_output <> "" ->
              write_binary out [ rs.Server.rs_output ]
          | _ -> print_string rs.Server.rs_output);
          exit (Server.status_exit_code rs.Server.rs_status)));
  let engine = Diag.Engine.create ~max_errors () in
  (* Under --verify-diagnostics the produced diagnostics are consumed by
     the matcher instead of printed; only harness failures reach stderr. *)
  if not verify_diagnostics then
    Diag.Engine.add_handler engine (Diag.Engine.printer Fmt.stderr);
  let parse_failed = ref false and verify_failed = ref false in
  let ctx = Irdl_ir.Context.create () in
  let native = Irdl_core.Native.create ~strict () in
  if with_cmath then Irdl_dialects.Cmath.register_hooks native;
  let finish code =
    Option.iter
      (fun path ->
        let json = Diag.Engine.to_json engine in
        if path = "-" then print_string json
        else
          let oc = open_out path in
          output_string oc json;
          close_out oc)
      diag_json;
    if verify_stats then
      Fmt.epr "verification cache: %a@." Irdl_ir.Context.pp_verify_stats
        ((Irdl_ir.Context.stats ctx).st_verify);
    exit code
  in
  (* Dialect definitions: bundled corpus, cmath, then user files. The
     bundled sources are not user input; a failure there is a build bug.
     Every resolved dialect is remembered in registration order so
     --emit-dialect-bytecode can serialize the whole registry. *)
  let resolved_dialects = ref [] in
  let note_dialects dls =
    resolved_dialects := List.rev_append dls !resolved_dialects
  in
  if with_corpus then (
    match Irdl_dialects.Corpus.load_all ~native ctx with
    | Ok dls -> note_dialects dls
    | Error d -> fail_diag d);
  if with_cmath then (
    match Irdl_core.Irdl.load_one ~native ctx Irdl_dialects.Cmath.source with
    | Ok dl -> note_dialects [ dl ]
    | Error d -> fail_diag d);
  (* User dialect files: fail-soft, format-sniffed. IRDL text goes through
     parse+resolve; a bytecode dialect pack (--emit-dialect-bytecode of an
     earlier run) skips both. Every error in every file is reported;
     definitions that survive are registered so later stages still have
     something to check against. *)
  let errors_before_frontend = Diag.Engine.error_count engine in
  List.iter
    (fun path ->
      match
        Frontend.load_dialects ~native ~file:path ~engine ctx
          (Source.classify (read_file path))
      with
      | Ok dls ->
          note_dialects dls;
          Logs.info (fun m ->
              m "loaded %d dialect(s) from %s" (List.length dls) path)
      | Error d -> Diag.Engine.emit engine d)
    dialect_files;
  Option.iter
    (fun out ->
      match
        Bytecode.Write.dialects_to_string (List.rev !resolved_dialects)
      with
      | Ok blob -> write_binary out [ blob ]
      | Error d -> fail_diag d)
    emit_dialect_bytecode;
  (* Textual rewrite patterns (fully dynamic pattern-based flow, paper §3);
     they parameterize the 'canonicalize' pass. *)
  let patterns =
    List.concat_map
      (fun path ->
        match
          Irdl_rewrite.Textual.parse_patterns ctx ~file:path (read_file path)
        with
        | Ok ps ->
            Logs.info (fun m ->
                m "loaded %d pattern(s) from %s" (List.length ps) path);
            ps
        | Error d ->
            Diag.Engine.emit engine d;
            [])
      pattern_files
  in
  if Diag.Engine.error_count engine > errors_before_frontend then
    parse_failed := true;
  (* Resolve the pipeline before touching the input so a malformed pipeline
     fails fast. Pipeline text carries no annotations to expect diagnostics
     against, so this is fatal even under --verify-diagnostics. *)
  let pipeline_src =
    (* -p patterns with no --pass-pipeline run as 'canonicalize'. *)
    match pipeline with
    | None when patterns <> [] -> Some "canonicalize"
    | p -> p
  in
  let passes =
    match pipeline_src with
    | None -> []
    | Some src -> (
        match
          Irdl_pass.Pipeline.parse
            ~available:(Irdl_pass.Passes.builtin ~patterns ())
            src
        with
        | Ok passes -> passes
        | Error d ->
            Diag.Engine.emit engine d;
            if verify_diagnostics then Fmt.epr "%a@." Diag.pp d;
            finish 1)
  in
  if
    patterns <> []
    && not (List.exists (fun p -> Irdl_pass.Pass.name p = "canonicalize") passes)
  then
    Logs.warn (fun m ->
        m "rewrite patterns were loaded but 'canonicalize' is not in the \
           pipeline; they will not be applied");
  (* A broken frontend would drown the IR in cascaded 'unregistered
     operation' errors, so stop here — except under --verify-diagnostics,
     where those errors may be exactly what the run expects. *)
  if !parse_failed && not verify_diagnostics then finish 1;
  (* Server modes: the registry loaded above becomes the resident corpus;
     requests are served until EOF (--serve) or shutdown. The exit is
     clean even on SIGTERM/SIGINT — in-flight requests drain first. *)
  if serve || Option.is_some listen then begin
    let config =
      {
        Server.default_config with
        limits = base_limits;
        max_queue;
        domains = jobs_domains jobs;
        generic;
      }
    in
    Server.install_signal_handlers ();
    let answered =
      match listen with
      | Some path ->
          Gc.set { (Gc.get ()) with space_overhead = listen_space_overhead };
          Server.serve_unix ~config ctx ~path ()
      | None ->
          Server.serve_fd ~config ctx ~in_fd:Unix.stdin ~out_fd:Unix.stdout ()
    in
    Logs.info (fun m -> m "served %d request(s)" answered);
    finish 0
  end;
  (* Run a pipeline over [ops]: the diagnostics of a failing pass, or of
     re-verifying the transformed IR. [timing] carries the
     --pass-timing[-json] sinks on the sequential path; parallel workers
     pass [None] (those flags force sequential execution). *)
  let run_passes ~timing passes ops =
    (* Run the pipeline (even over an empty module: the timing report is
       still produced, with every pass at zero ops). *)
    let mgr =
      Irdl_pass.Pass_manager.create ~verify_each ~print_ir_before
        ~print_ir_after ~print_ir_before_all ~print_ir_after_all passes
    in
    match Irdl_pass.Pass_manager.run mgr ctx ops with
    | Error d -> [ d ]
    | Ok report ->
        (match timing with
        | None -> ()
        | Some (pass_timing, pass_timing_json) ->
            Option.iter
              (fun path ->
                with_out_channel path (fun ppf ->
                    Irdl_pass.Pass_manager.pp_report ppf report))
              pass_timing;
            Option.iter
              (fun path ->
                let json = Irdl_pass.Pass_manager.report_to_json report in
                if path = "-" then print_string json
                else
                  let oc = open_out path in
                  output_string oc json;
                  close_out oc)
              pass_timing_json);
        (* Whatever ran — CSE and DCE included — the transformed IR must
           still verify, pipeline instrumentation or not. *)
        Irdl_ir.Verifier.verify_ops_all ctx ops
  in
  (* --emit-bytecode switches every output sink from the textual printer
     to the bytecode emitter; everything else (chunking, verification,
     parallelism, exit codes) is format-independent. *)
  let emit_binary = Option.is_some emit_bytecode in
  (* The one-shot budget. The deadline clock starts here — dialect loading
     is setup, not input processing. *)
  let run_limits =
    if deadline_ms > 0 then Limits.with_deadline_ms base_limits deadline_ms
    else base_limits
  in
  (* One input chunk through the chunk driver, against an arbitrary
     engine: the sequential driver passes the main engine, parallel workers
     a local one (replayed in input order afterwards). A chunk that fails
     to parse or verify never blocks the chunks after it. *)
  let process_chunk ~engine ~timing passes ~path payload =
    if load_bytecode && not (Source.is_binary payload) then begin
      Diag.Engine.emit engine
        (Diag.error
           ~loc:(Irdl_support.Loc.point (Irdl_support.Loc.start_of_file path))
           "--load-bytecode: input is not IRDL bytecode (bad magic)");
      { Frontend.parse_failed = true; verify_failed = false; output = None }
    end
    else
      let sink =
        if verify_only || verify_diagnostics then None
        else if emit_binary then Some (Frontend.Sink.bytecode ())
        else Some (Frontend.Sink.text ~generic ctx)
      in
      let pipeline =
        if passes = [] then None else Some (run_passes ~timing passes)
      in
      Frontend.run ~file:path ~engine ~limits:run_limits ~verify:true ?sink
        ?pipeline ctx payload
  in
  if Option.is_some batch && Option.is_some input then begin
    Fmt.epr "irdl-opt: --batch cannot be combined with a positional INPUT@.";
    finish 1
  end;
  (* Documents are (path, fetch) pairs producing classified payloads
     (text or bytecode, sniffed by magic): --batch files are fetched
     lazily so the sequential driver keeps at most one source resident
     (and can drop it once processed), instead of materializing a whole
     corpus up front. A positional input is read eagerly ([Source.read]
     peeks stdin without seeking; stdin cannot be re-read). *)
  let docs =
    try
      match batch with
      | Some bpath ->
          List.map
            (fun p -> (p, fun () -> Source.classify (read_file p)))
            (batch_inputs bpath)
      | None -> (
          match input with
          | None -> []
          | Some path ->
              let payload = Source.read path in
              [ (path, fun () -> payload) ])
    with Sys_error msg ->
      Fmt.epr "irdl-opt: %s@." msg;
      finish 1
  in
  let fetch_doc fetch =
    try fetch ()
    with Sys_error msg ->
      Fmt.epr "irdl-opt: %s@." msg;
      finish 1
  in
  (* Each text document's annotations once a walk has found them. *)
  let doc_scans = Array.make (List.length docs) None in
  (match docs with
  | [] when batch = None ->
      if passes <> [] then begin
        let ds =
          run_passes ~timing:(Some (pass_timing, pass_timing_json)) passes []
        in
        List.iter (Diag.Engine.emit engine) ds;
        if ds <> [] then verify_failed := true
      end
      else if not verify_diagnostics then
        Fmt.pr "registered dialects: %s@."
          (String.concat ", "
             (List.map
                (fun (d : Irdl_ir.Context.dialect) -> d.d_name)
                (Irdl_ir.Context.dialects ctx)))
  | [] -> () (* --batch expanded to no files *)
  | _ when !parse_failed -> ()
  | docs ->
      (* The unit of work is one chunk of one document: --split-input-file
         cuts text at '// -----' lines and bytecode at document
         boundaries, --batch contributes one document per file; both
         compose. *)
      let doc_outs = Array.make (List.length docs) [] in
      (* Chunks and annotations come from the same lines: under
         --verify-diagnostics one walk of a text document gives both, and
         its annotations are kept for the check at the end. *)
      let chunks_of di path payload =
        match payload with
        | Source.Text (src, _) when verify_diagnostics ->
            let windows, scanned = Harness.scan ~file:path src in
            doc_scans.(di) <- Some scanned;
            if split_input_file then
              List.map (fun w -> Source.Text (src, w)) windows
            else [ payload ]
        | _ -> Source.chunks ~split:split_input_file payload
      in
      let n_jobs = jobs_domains jobs in
      (* --max-errors couples chunks (the cap is global); the pass
         instrumentation sinks interleave per-chunk output. Both are
         inherently sequential: fall back, and say so. *)
      let sequential_flags =
        List.filter_map
          (fun (on, flag) -> if on then Some flag else None)
          [
            (max_errors <> 0, "--max-errors");
            (pass_timing <> None, "--pass-timing");
            (pass_timing_json <> None, "--pass-timing-json");
            (print_ir_before <> [], "--print-ir-before");
            (print_ir_after <> [], "--print-ir-after");
            (print_ir_before_all, "--print-ir-before-all");
            (print_ir_after_all, "--print-ir-after-all");
          ]
      in
      if jobs_requested jobs > 1 && sequential_flags <> [] then
        Fmt.epr "irdl-opt: warning: --jobs %d ignored: %s runs sequentially@."
          jobs
          (String.concat ", " sequential_flags);
      let note di (r : Frontend.outcome) =
        if r.parse_failed then parse_failed := true;
        if r.verify_failed then verify_failed := true;
        Option.iter (fun o -> doc_outs.(di) <- o :: doc_outs.(di)) r.output
      in
      (* Parallel execution needs every chunk cut up front (the workers
         share the task array); the sequential driver below keeps one
         document resident at a time instead. Chunks are windows of their
         document, whose text is registered here, once, for every worker
         to render snippets from. *)
      let tasks =
        if n_jobs > 1 && sequential_flags = [] then
          List.concat
            (List.mapi
               (fun di (path, fetch) ->
                 let payload = fetch_doc fetch in
                 (match payload with
                 | Source.Text (src, _) -> Diag.Sources.register ~file:path src
                 | Source.Binary _ -> ());
                 List.map
                   (fun chunk -> (di, path, chunk))
                   (chunks_of di path payload))
               docs)
          |> Array.of_list
        else [||]
      in
      if Array.length tasks <= 1 then
        List.iteri
          (fun di (path, fetch) ->
            let src = fetch_doc fetch in
            List.iter
              (fun chunk ->
                note di
                  (process_chunk ~engine
                     ~timing:(Some (pass_timing, pass_timing_json))
                     passes ~path chunk))
              (chunks_of di path src);
            (* This document's diagnostics are flushed (handlers render at
               emit time): drop its buffer so a long --batch run does not
               retain every processed source. *)
            if Option.is_some batch && not verify_diagnostics then
              Diag.Sources.drop path)
          docs
      else begin
        (* Registration is over: freeze the context so every domain can
           look definitions up (and verify against its own cache shard)
           without synchronization. *)
        Irdl_ir.Context.freeze ctx;
        let sources = Diag.Sources.snapshot () in
        (* Under --verify-diagnostics the rendered text is never printed,
           only the diagnostics are matched: skip rendering it. *)
        let render d =
          if verify_diagnostics then "" else Fmt.str "%a" Diag.pp_rendered d
        in
        let thunks =
          Array.map
            (fun (_, path, chunk) () ->
              (* The main domain's sources (dialect files and the inputs),
                 so worker-side rendering has the same snippets. *)
              Diag.Sources.preload sources;
              let worker_engine = Diag.Engine.create () in
              let rendered = ref [] in
              Diag.Engine.add_handler worker_engine (fun d ->
                  rendered := (d, render d) :: !rendered);
              (* Pass instances are cheap per-chunk values; re-deriving
                 them here keeps workers from sharing any pass state. The
                 string parsed fine on the main domain, so it parses
                 fine here. *)
              let wpasses =
                match pipeline_src with
                | None -> []
                | Some src ->
                    Diag.get_ok
                      (Irdl_pass.Pipeline.parse
                         ~available:(Irdl_pass.Passes.builtin ~patterns ())
                         src)
              in
              let r =
                process_chunk ~engine:worker_engine ~timing:None wpasses ~path
                  chunk
              in
              (List.rev !rendered, r))
            tasks
        in
        let results =
          Domain_pool.with_pool ~domains:n_jobs (fun pool ->
              Domain_pool.run pool thunks)
        in
        (* Replay in input order: counts and --diag-json through the main
           engine, pre-rendered text straight to stderr — byte-identical
           to the sequential printer handler. *)
        Array.iteri
          (fun i (diags, r) ->
            let di, _, _ = tasks.(i) in
            List.iter
              (fun (d, rendered) ->
                Diag.Engine.record engine d;
                if not verify_diagnostics then Fmt.epr "%s@." rendered)
              diags;
            note di r)
          results
      end;
      (match emit_bytecode with
      | Some out ->
          (* Bytecode documents are self-delimiting and concatenate, so
             the assembled output is the plain concatenation in input
             order — headers or separators would corrupt the stream. *)
          let blobs =
            List.concat (List.mapi (fun di _ -> List.rev doc_outs.(di)) docs)
          in
          if blobs <> [] then write_binary out (List.concat blobs)
      | None -> (
          match batch with
          | None -> print_outs (List.rev doc_outs.(0))
          | Some _ ->
              List.iteri
                (fun di (path, _) ->
                  print_outs
                    ~header:("// ===== " ^ path ^ " =====\n")
                    (List.rev doc_outs.(di)))
                docs)));
  if verify_diagnostics then begin
    (* Expectations come from every input document and every -d dialect
       file. Bytecode carries no comments to annotate, so binary payloads
       contribute none. *)
    let scan_text p = function
      | Source.Text (src, _) -> Some (Harness.scan_expectations ~file:p src)
      | Source.Binary _ -> None
    in
    let expectations, scan_errors =
      List.split
        (List.filter_map
           (fun p -> scan_text p (Source.classify (read_file p)))
           dialect_files
        @ List.filter_map Fun.id
            (List.mapi
               (fun di (p, fetch) ->
                 match doc_scans.(di) with
                 | Some _ as scanned -> scanned
                 | None -> scan_text p (fetch_doc fetch))
               docs))
    in
    let expectations = List.concat expectations
    and scan_errors = List.concat scan_errors in
    let failures =
      scan_errors @ Harness.check ~expectations (Diag.Engine.diagnostics engine)
    in
    if failures = [] then finish 0
    else begin
      List.iter (fun d -> Fmt.epr "%a@." Diag.pp d) failures;
      finish 3
    end
  end;
  finish (if !parse_failed then 1 else if !verify_failed then 2 else 0)

let dialect_files =
  Arg.(
    value & opt_all file []
    & info [ "d"; "dialect" ] ~docv:"FILE"
        ~doc:"Load IRDL dialect definitions from $(docv). Repeatable.")

let pattern_files =
  Arg.(
    value & opt_all file []
    & info [ "p"; "patterns" ] ~docv:"FILE"
        ~doc:
          "Load textual rewrite patterns from $(docv); they parameterize \
           the 'canonicalize' pass (added to the pipeline automatically \
           when no $(b,--pass-pipeline) is given). Repeatable.")

let with_corpus =
  Arg.(
    value & flag
    & info [ "corpus" ]
        ~doc:"Register the bundled 28-dialect MLIR corpus (Table 1).")

let with_cmath =
  Arg.(
    value & flag
    & info [ "cmath" ]
        ~doc:
          "Register the paper's cmath dialect with its native (IRDL-C++) \
           hooks.")

let input =
  Arg.(
    value & pos 0 (some string) None
    & info [] ~docv:"INPUT"
        ~doc:"IR file to parse and verify ('-' for stdin).")

let generic =
  Arg.(
    value & flag
    & info [ "generic" ]
        ~doc:"Print operations in generic form, ignoring custom formats.")

let verify_only =
  Arg.(
    value & flag
    & info [ "verify-only" ] ~doc:"Verify without re-printing the IR.")

let split_input_file =
  Arg.(
    value & flag
    & info [ "split-input-file" ]
        ~doc:
          "Split the input at '// -----' lines and process each chunk \
           independently; a malformed chunk does not block later chunks. \
           Diagnostics keep the line numbers of the original file.")

let verify_diagnostics =
  Arg.(
    value & flag
    & info [ "verify-diagnostics" ]
        ~doc:
          "Check produced diagnostics against 'expected-error@<offset> \
           {{substring}}' comment annotations (also -warning/-note; \
           offsets: @+N, @-N, @above, @below) in the input and dialect \
           files instead of printing them. Unexpected diagnostics and \
           unfulfilled expectations are reported and exit with status 3.")

let max_errors =
  Arg.(
    value & opt int 0
    & info [ "max-errors" ] ~docv:"N"
        ~doc:
          "Stop collecting after $(docv) errors (0, the default, is \
           unlimited); further errors are counted as suppressed.")

let diag_json =
  Arg.(
    value & opt (some string) None
    & info [ "diag-json" ] ~docv:"FILE"
        ~doc:
          "Write every diagnostic of the run (plus severity counts) as a \
           JSON document to $(docv) ('-' for stdout).")

let pipeline =
  Arg.(
    value & opt (some string) None
    & info [ "pass-pipeline" ] ~docv:"PIPELINE"
        ~doc:
          "Run a comma-separated pass pipeline over the parsed IR, e.g. \
           'canonicalize,cse,dce'. Available passes: canonicalize (greedy \
           pattern rewriting, uses the patterns of $(b,-p)), cse, dce, \
           verify-dominance.")

let verify_each =
  Arg.(
    value & flag
    & info [ "verify-each" ]
        ~doc:
          "Re-run the verifier after every pass; a failure is attributed \
           to the offending pass by name.")

let print_ir_before =
  Arg.(
    value & opt_all string []
    & info [ "print-ir-before" ] ~docv:"PASS"
        ~doc:"Dump the IR to stderr before the named pass. Repeatable.")

let print_ir_after =
  Arg.(
    value & opt_all string []
    & info [ "print-ir-after" ] ~docv:"PASS"
        ~doc:"Dump the IR to stderr after the named pass. Repeatable.")

let print_ir_before_all =
  Arg.(
    value & flag
    & info [ "print-ir-before-all" ]
        ~doc:"Dump the IR to stderr before every pass.")

let print_ir_after_all =
  Arg.(
    value & flag
    & info [ "print-ir-after-all" ]
        ~doc:"Dump the IR to stderr after every pass.")

let pass_timing =
  Arg.(
    value & opt (some string) None
    & info [ "pass-timing" ] ~docv:"FILE"
        ~doc:
          "Write the per-pass wall-clock timing report (text) to $(docv) \
           ('-' for stderr).")

let pass_timing_json =
  Arg.(
    value & opt (some string) None
    & info [ "pass-timing-json" ] ~docv:"FILE"
        ~doc:
          "Write the per-pass timing report as JSON to $(docv) ('-' for \
           stdout).")

let strict =
  Arg.(
    value & flag
    & info [ "strict-native" ]
        ~doc:
          "Fail on IRDL-C++ snippets with no registered native hook instead \
           of accepting them.")

let verify_stats =
  Arg.(
    value & flag
    & info [ "verify-stats" ]
        ~doc:
          "Report verification-cache statistics (entries, hit rate, \
           invalidations) on stderr after the run. Ops are verified as \
           they are parsed, so the counts include ops of chunks that \
           later fail to parse. Under $(b,--jobs), the hit and miss \
           counts include the worker domains, which have exited by then; \
           the entry counts cover the main domain's live tables only.")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Verify $(b,--split-input-file) chunks and $(b,--batch) files on \
           $(docv) domains in parallel over the frozen dialect registry, \
           capped at the machine's recommended domain count (default 1; \
           0 picks that count). Output, exit code and $(b,--diag-json) \
           are byte-identical to a sequential run. Falls back to sequential execution, with a \
           warning, when combined with $(b,--max-errors), \
           $(b,--pass-timing[-json]) or $(b,--print-ir-*), whose output is \
           inherently cross-chunk; the warning is given whenever $(docv) > \
           1, capped or not. With $(b,--listen), the number of serve \
           loops, capped the same way.")

let batch =
  Arg.(
    value & opt (some string) None
    & info [ "batch" ] ~docv:"PATH"
        ~doc:
          "Process many IR files in one run over one resident dialect \
           registry: $(docv) is a directory (every *.mlir and *.irdlbc \
           file in it, sorted by name) or a text file listing one IR path \
           per line ('#' comments allowed). Each file's re-printed output \
           is preceded by a '// ===== <path> =====' header. Cannot be \
           combined with a positional $(b,INPUT).")

let emit_bytecode =
  Arg.(
    value & opt (some string) None
    & info [ "emit-bytecode" ] ~docv:"FILE"
        ~doc:
          "Write the processed IR as versioned binary bytecode to $(docv) \
           ('-' for stdout) instead of re-printing it as text. Each \
           processed chunk becomes one self-delimiting bytecode document; \
           under $(b,--batch) the documents of every file are concatenated \
           in input order (bytecode needs no headers or separators). \
           Composes with $(b,--split-input-file), $(b,--batch) and \
           $(b,--jobs).")

let load_bytecode =
  Arg.(
    value & flag
    & info [ "load-bytecode" ]
        ~doc:
          "Require bytecode input: inputs that do not start with the \
           bytecode magic are rejected. The input format is always \
           detected automatically (magic sniffing, stdin included); this \
           flag only turns a silent fall-back to the text parser into an \
           error, for pipelines that expect pre-compiled bytecode.")

let emit_dialect_bytecode =
  Arg.(
    value & opt (some string) None
    & info [ "emit-dialect-bytecode" ] ~docv:"FILE"
        ~doc:
          "Write every dialect registered in this run ($(b,--corpus), \
           $(b,--cmath) and $(b,-d) files, in registration order) as a \
           bytecode dialect pack to $(docv) ('-' for stdout). A later run \
           warm-starts by passing the pack to $(b,-d), skipping IRDL \
           parsing and resolution entirely.")

let serve =
  Arg.(
    value & flag
    & info [ "serve" ]
        ~doc:
          "Run as a resident service over stdin/stdout: the dialect \
           registry is loaded once, then length-framed requests (parse, \
           verify, print, emit-bytecode, ping, stats, shutdown) are \
           answered until end of input. Responses preserve request order; \
           diagnostics are byte-identical to a one-shot run over the same \
           input. Each burst of pipelined requests is answered inline, in \
           arrival order; the $(b,--max-*)/$(b,--deadline-ms) budgets \
           become the server-wide ceiling, and $(b,--max-queue) bounds the \
           accepted burst.")

let listen =
  Arg.(
    value & opt (some string) None
    & info [ "listen" ] ~docv:"SOCKET"
        ~doc:
          "Like $(b,--serve), but listen on a Unix-domain socket at \
           $(docv), serving any number of concurrent connections until \
           SIGTERM/SIGINT (in-flight requests drain first; the socket \
           file is removed on exit). $(b,--jobs) sets the number of \
           serve loops, one per domain.")

let connect =
  Arg.(
    value & opt (some string) None
    & info [ "connect" ] ~docv:"SOCKET"
        ~doc:
          "Client mode: send the input (positional $(b,INPUT) or stdin) \
           as one request to the server at $(docv) and print its \
           response — diagnostics to stderr, output to stdout, one-shot \
           exit codes. $(b,--verify-only) requests verification only, \
           $(b,--emit-bytecode) a bytecode response; the \
           $(b,--max-*)/$(b,--deadline-ms) budgets ride along with the \
           request.")

let failpoints =
  Arg.(
    value & opt (some string) None
    & info [ "failpoints" ] ~docv:"SPEC"
        ~doc:
          "Arm fault-injection seams: a comma-separated list of \
           $(i,seam[:K]) entries (inject at every K-th hit; default every \
           hit). Seams: parse, verify, bytecode.decode, pool.task. Also \
           settable via $(b,IRDL_FAILPOINTS). Injected faults surface as \
           structured internal-error diagnostics; a server answers the \
           poisoned request and keeps running.")

let max_queue =
  Arg.(
    value & opt int 0
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Bound the request burst a server accepts at once: requests \
           beyond $(docv) are shed with a retry_later response carrying a \
           retry-after-ms hint (0, the default, accepts everything).")

let max_ops =
  Arg.(
    value & opt int 0
    & info [ "max-ops" ] ~docv:"N"
        ~doc:
          "Abort parsing/decoding after $(docv) operations with a \
           resource_exhausted diagnostic (0 = unlimited).")

let max_region_depth =
  Arg.(
    value & opt int 0
    & info [ "max-region-depth" ] ~docv:"N"
        ~doc:
          "Cap region nesting at $(docv) levels; deeper input is rejected \
           with a resource_exhausted diagnostic (0 = unlimited).")

let max_payload_bytes =
  Arg.(
    value & opt int 0
    & info [ "max-payload-bytes" ] ~docv:"N"
        ~doc:
          "Reject inputs larger than $(docv) bytes with a \
           resource_exhausted diagnostic; a server discards oversized \
           request payloads without buffering them (0 = unlimited).")

let deadline_ms =
  Arg.(
    value & opt int 0
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Give up after $(docv) milliseconds (monotonic clock, checked \
           at operation boundaries) with a deadline_exceeded diagnostic \
           (0 = no deadline).")

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

let cmd =
  let doc = "parse, verify and transform IR against IRDL-defined dialects" in
  Cmd.v
    (Cmd.info "irdl-opt" ~doc)
    Term.(
      const run $ dialect_files $ pattern_files $ with_corpus $ with_cmath
      $ input $ generic $ verify_only $ split_input_file $ verify_diagnostics
      $ max_errors $ diag_json $ pipeline $ verify_each $ print_ir_before
      $ print_ir_after $ print_ir_before_all $ print_ir_after_all
      $ pass_timing $ pass_timing_json $ strict $ verify_stats $ jobs $ batch
      $ emit_bytecode $ load_bytecode $ emit_dialect_bytecode $ serve
      $ listen $ connect $ failpoints $ max_queue $ max_ops
      $ max_region_depth $ max_payload_bytes $ deadline_ms $ verbose)

(* With SIGPIPE ignored, a downstream reader that stops early (irdl-opt
   ... | head) surfaces as EPIPE on write instead of killing the process;
   treat it as a clean early exit, like every well-behaved filter. *)
let is_broken_pipe = function
  | Unix.Unix_error (Unix.EPIPE, _, _) -> true
  | Sys_error msg ->
      (* OCaml channels wrap the errno text; match it rather than losing
         the case. *)
      let needle = "Broken pipe" in
      let rec find i =
        i + String.length needle <= String.length msg
        && (String.sub msg i (String.length needle) = needle || find (i + 1))
      in
      find 0
  | _ -> false

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Cmd.eval ~catch:false cmd with
  | code -> exit code
  | exception e when is_broken_pipe e ->
      (* The at_exit flushes would hit the same dead pipe and turn the
         clean exit into an uncaught exception; give the buffered bytes
         nowhere to fail. *)
      (try Unix.dup2 (Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0) Unix.stdout
       with Unix.Unix_error _ -> ());
      exit 0
