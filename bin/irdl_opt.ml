(* irdl-opt: the mlir-opt analog of this project.

   Loads IRDL dialect definitions (from files and/or the bundled corpus),
   then parses, verifies, transforms and re-prints an IR file — the full
   dynamic-registration flow of paper §3: no code is generated or compiled
   at any point.

   A run is one-shot, or a resident server ([--serve], [--listen]), or a
   client of one ([--connect]). Each flag names the modes that accept it
   where it is defined, in [options]; [check] rejects any other use before
   anything loads, so no flag is silently ignored, and [--help] prints the
   same sets.

   All user-facing failures flow through a diagnostic engine
   (lib/support/diag): the frontend recovers and reports every error in a
   source instead of stopping at the first, errors render with caret
   source snippets, `--max-errors` caps the flood, and `--diag-json`
   mirrors the run to a machine-readable sink. `--split-input-file`
   processes `// -----`-separated chunks independently and
   `--verify-diagnostics` checks produced diagnostics against
   `expected-error {{...}}` annotations, MLIR-style.

   Every one-shot run with input documents is one batch of chunk tasks on
   `--jobs N` domains (at most one per core; with one, the calling domain
   runs the tasks in order) over the one resident, frozen dialect
   registry; `--batch` feeds many IR files into that batch. A task
   renders nothing: it returns its diagnostics, IR dumps and timing, and
   the calling domain replays them in input order through the main
   engine. So every flag composes with `--jobs`, and the output of a run
   does not depend on it. Each chunk runs through the one chunk driver
   `Frontend.run`, and through the instrumented pass manager (lib/pass)
   when a pipeline is given.

   Exit codes: 0 success; 1 parse-class failure (IRDL/pattern/pipeline/IR
   parsing) or a rejected command line; 2 verify-class failure (verifier
   or pass failures on IR that parsed); 3 `--verify-diagnostics` mismatch
   or malformed annotation; 4 a `--connect` transport error. Parse
   failures take precedence over verify failures. *)

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

(* Every output file of a run goes through here: [pages] written in order
   to [path], or to [std] for "-" (stderr for the text timing report,
   stdout for everything else). Bytes go out as they are, never joined. *)
let write_out ~std path pages =
  if path = "-" then begin
    Out_channel.set_binary_mode std true;
    List.iter (output_string std) pages
  end
  else
    Out_channel.with_open_bin path (fun oc ->
        List.iter (output_string oc) pages)

(* An optional header, each chunk's printed output with a [// -----] line
   between chunks, and a final newline, written straight to stdout: the
   outputs are never joined into one more copy. Format's stdout is flushed
   first so that anything printed through it stays in order. *)
let print_outs ?header = function
  | [] -> ()
  | outs ->
      Format.pp_print_flush Format.std_formatter ();
      Option.iter print_string header;
      List.iteri
        (fun i out ->
          if i > 0 then print_string "\n// -----\n";
          Frontend.Sink.write_output stdout out)
        outs;
      print_char '\n';
      flush stdout

(* What a chunk task hands back for the calling domain to replay, in the
   order it happened. *)
type event =
  | Diagnostic of Diag.t
  | Ir_dump of string
  | Timing of Irdl_pass.Pass_manager.report

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* For failures outside any user source (bundled corpus, cmath): nothing to
   recover, nothing to annotate. *)
let fail_diag d =
  Fmt.epr "%a@." Diag.pp d;
  exit 1

(* --jobs N asks for N domains (0: the recommended count) and gets at most
   one per core: past the core count the domains only take turns, and on
   a 1-core box 4 domains parsed and verified corpus chunks 2.7x slower
   than 1. *)
let jobs_domains jobs =
  let cores = Domain.recommended_domain_count () in
  if jobs <= 0 then cores else min jobs cores

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

(* The four ways to run: one-shot, or the one that a mode flag picks. *)
type mode = One_shot | Serve | Listen | Connect

let mode_name = function
  | One_shot -> "one-shot"
  | Serve -> "--serve"
  | Listen -> "--listen"
  | Connect -> "--connect"

let one_shot = [ One_shot ]

(* What a --connect request carries: its document, kind and deadline. *)
let with_connect = [ One_shot; Connect ]

(* What shapes the registry a server loads and the replies it renders. *)
let with_servers = [ One_shot; Serve; Listen ]
let every_mode = [ One_shot; Serve; Listen; Connect ]

(* A flag given on the command line: its name (the short one, if any),
   the modes that accept it, the flags it cannot be combined with, and
   whether it instruments a pass pipeline. *)
type use = {
  flag : string;
  modes : mode list;
  excludes : string list;
  passes : bool;
}

(* One command-line argument: [a] under [names] (the positional $(docv)
   when there are none), accepted in [modes]. Its help ends with that set
   (except for the mode flags themselves), and it evaluates to its value
   and, when given, its use. *)
let arg ?(note = true) ?(excludes = []) ?(passes = false) ~modes ?docv ~doc
    names a =
  let flag =
    match (List.find_opt (fun n -> String.length n = 1) names, names) with
    | Some n, _ -> "-" ^ n
    | None, n :: _ -> "--" ^ n
    | None, [] -> Option.get docv
  in
  let doc =
    if note then
      Printf.sprintf "%s Modes: %s." doc
        (String.concat ", " (List.map mode_name modes))
    else doc
  in
  Term.(
    const (fun (v, used) ->
        (v, if used = [] then [] else [ { flag; modes; excludes; passes } ]))
    $ with_used_args (Arg.value (a (Arg.info names ?docv ~doc))))

type options = {
  connect : string option;
  serve : bool;
  listen : string option;
  input : string option;
  batch : string option;
  dialect_files : string list;
  pattern_files : string list;
  corpus : bool;
  cmath : bool;
  strict : bool;
  generic : bool;
  verify_only : bool;
  split_input_file : bool;
  verify_diagnostics : bool;
  max_errors : int;
  diag_json : string option;
  pipeline : string option;
  verify_each : bool;
  print_ir_before : string list;
  print_ir_after : string list;
  print_ir_before_all : bool;
  print_ir_after_all : bool;
  pass_timing : string option;
  pass_timing_json : string option;
  verify_stats : bool;
  jobs : int;
  emit_bytecode : string option;
  load_bytecode : bool;
  emit_dialect_bytecode : string option;
  failpoints : string option;
  limits : Limits.t;
      (* --max-*: one-shot parsing's budget, a server's ceiling, and sent
         along with a --connect request *)
  deadline_ms : int;
}

(* The one options term, the table of flags: the record, and the uses of
   its flags in this order, the mode flags first. *)
let options =
  let ( let+ ) t f = Term.(const (fun (v, u) -> (f v, u)) $ t) in
  let ( and+ ) a b =
    Term.(const (fun (x, ua) (y, ub) -> ((x, y), ua @ ub)) $ a $ b)
  in
  (* The pass-manager flags: they instrument a pipeline, so they need one. *)
  let pass_arg ?docv ~doc names a =
    arg ~passes:true ~modes:one_shot ?docv ~doc names a
  in
  let+ connect =
    arg ~note:false ~modes:[ Connect ] [ "connect" ] ~docv:"SOCKET"
      ~doc:
        "Client mode: send the input (positional $(b,INPUT) or stdin) as one \
         request to the server at $(docv) and print its response — \
         diagnostics to stderr, output to stdout, one-shot exit codes. \
         $(b,--verify-only) requests verification only, $(b,--emit-bytecode) \
         a bytecode response; the $(b,--max-*)/$(b,--deadline-ms) budgets \
         ride along with the request."
      Arg.(opt (some string) None)
  and+ serve =
    arg ~note:false ~modes:[ Serve ] [ "serve" ]
      ~doc:
        "Run as a resident service over stdin/stdout: the dialect registry is \
         loaded once, then length-framed requests (parse, verify, print, \
         emit-bytecode, ping, stats, shutdown) are answered until end of \
         input. Responses preserve request order; diagnostics are \
         byte-identical to a one-shot run over the same input. Each request \
         is answered as soon as it arrives, before the next is read; the \
         $(b,--max-*) budgets become the server-wide ceiling, and a deadline \
         is a request's own."
      Arg.flag
  and+ listen =
    arg ~note:false ~modes:[ Listen ] [ "listen" ] ~docv:"SOCKET"
      ~doc:
        "Like $(b,--serve), but listen on a Unix-domain socket at $(docv), \
         serving any number of concurrent connections until SIGTERM/SIGINT \
         (in-flight requests drain first; the socket file is removed on \
         exit). $(b,--jobs) sets the number of serve loops, one per domain."
      Arg.(opt (some string) None)
  and+ input =
    arg ~modes:with_connect [] ~docv:"INPUT"
      ~doc:"IR file to parse and verify ('-' for stdin)."
      Arg.(pos 0 (some string) None)
  and+ batch =
    arg ~modes:one_shot ~excludes:[ "INPUT" ] [ "batch" ] ~docv:"PATH"
      ~doc:
        "Process many IR files in one run over one resident dialect registry: \
         $(docv) is a directory (every *.mlir and *.irdlbc file in it, sorted \
         by name) or a text file listing one IR path per line ('#' comments \
         allowed). Each file's re-printed output is preceded by a '// ===== \
         <path> =====' header. Every file is read up front and held until \
         the run ends. Cannot be combined with a positional $(b,INPUT)."
      Arg.(opt (some string) None)
  and+ dialect_files =
    arg ~modes:with_servers [ "d"; "dialect" ] ~docv:"FILE"
      ~doc:"Load IRDL dialect definitions from $(docv). Repeatable."
      Arg.(opt_all file [])
  and+ pattern_files =
    arg ~modes:one_shot [ "p"; "patterns" ] ~docv:"FILE"
      ~doc:
        "Load textual rewrite patterns from $(docv); they parameterize the \
         'canonicalize' pass (added to the pipeline automatically when no \
         $(b,--pass-pipeline) is given). Repeatable."
      Arg.(opt_all file [])
  and+ corpus =
    arg ~modes:with_servers [ "corpus" ]
      ~doc:
        "Register the bundled 28-dialect MLIR corpus (Table 1). It starts \
         warm: the corpus is a dialect pack encoded from its IRDL text when \
         irdl-opt is built, so a run only decodes and registers it, as \
         $(b,-d) does with a pack."
      Arg.flag
  and+ cmath =
    arg ~modes:with_servers [ "cmath" ]
      ~doc:
        "Register the paper's cmath dialect with its native (IRDL-C++) \
         hooks, from a dialect pack built in, like $(b,--corpus)."
      Arg.flag
  and+ strict =
    arg ~modes:with_servers [ "strict-native" ]
      ~doc:
        "Fail on IRDL-C++ snippets with no registered native hook instead of \
         accepting them."
      Arg.flag
  and+ generic =
    arg ~modes:with_servers [ "generic" ]
      ~doc:"Print operations in generic form, ignoring custom formats."
      Arg.flag
  and+ verify_only =
    arg ~modes:with_connect ~excludes:[ "--emit-bytecode" ] [ "verify-only" ]
      ~doc:"Verify without re-printing the IR." Arg.flag
  and+ split_input_file =
    arg ~modes:one_shot [ "split-input-file" ]
      ~doc:
        "Split the input at '// -----' lines and process each chunk \
         independently; a malformed chunk does not block later chunks. \
         Diagnostics keep the line numbers of the original file."
      Arg.flag
  and+ verify_diagnostics =
    arg ~modes:one_shot ~excludes:[ "--emit-bytecode" ] [ "verify-diagnostics" ]
      ~doc:
        "Check produced diagnostics against 'expected-error@<offset> \
         {{substring}}' comment annotations (also -warning/-note; offsets: \
         @+N, @-N, @above, @below) in the input and dialect files instead of \
         printing them. Unexpected diagnostics and unfulfilled expectations \
         are reported and exit with status 3."
      Arg.flag
  and+ max_errors =
    arg ~modes:one_shot [ "max-errors" ] ~docv:"N"
      ~doc:
        "Stop collecting after $(docv) errors of the whole run (0, the \
         default, is unlimited); further errors are counted as suppressed. \
         Chunks after the cap are still processed, and the valid ones \
         printed."
      Arg.(opt int 0)
  and+ diag_json =
    arg ~modes:one_shot [ "diag-json" ] ~docv:"FILE"
      ~doc:
        "Write every diagnostic of the run (plus severity counts) as a JSON \
         document to $(docv) ('-' for stdout)."
      Arg.(opt (some string) None)
  and+ pipeline =
    arg ~modes:one_shot [ "pass-pipeline" ] ~docv:"PIPELINE"
      ~doc:
        "Run a comma-separated pass pipeline over the parsed IR, e.g. \
         'canonicalize,cse,dce'. Available passes: canonicalize (greedy \
         pattern rewriting, uses the patterns of $(b,-p)), cse, dce, \
         verify-dominance."
      Arg.(opt (some string) None)
  and+ verify_each =
    pass_arg [ "verify-each" ]
      ~doc:
        "Re-run the verifier after every pass; a failure is attributed to the \
         offending pass by name."
      Arg.flag
  and+ print_ir_before =
    pass_arg [ "print-ir-before" ] ~docv:"PASS"
      ~doc:"Dump the IR to stderr before the named pass. Repeatable."
      Arg.(opt_all string [])
  and+ print_ir_after =
    pass_arg [ "print-ir-after" ] ~docv:"PASS"
      ~doc:"Dump the IR to stderr after the named pass. Repeatable."
      Arg.(opt_all string [])
  and+ print_ir_before_all =
    pass_arg [ "print-ir-before-all" ]
      ~doc:"Dump the IR to stderr before every pass." Arg.flag
  and+ print_ir_after_all =
    pass_arg [ "print-ir-after-all" ]
      ~doc:"Dump the IR to stderr after every pass." Arg.flag
  and+ pass_timing =
    pass_arg [ "pass-timing" ] ~docv:"FILE"
      ~doc:
        "Write the per-pass wall-clock timing report (text) to $(docv) ('-' \
         for stderr): one report for the run, summed over its chunks."
      Arg.(opt (some string) None)
  and+ pass_timing_json =
    pass_arg [ "pass-timing-json" ] ~docv:"FILE"
      ~doc:
        "Write the per-pass timing report as JSON to $(docv) ('-' for \
         stdout): one report for the run, summed over its chunks."
      Arg.(opt (some string) None)
  and+ verify_stats =
    arg ~modes:with_servers [ "verify-stats" ]
      ~doc:
        "Report the verification cache, the op signature memo of the \
         frozen dialect registry (signatures kept, hits, misses), on stderr \
         after the run. Ops are verified as they are parsed, so the counts \
         include ops of chunks that later fail to parse. Under $(b,--jobs), \
         every count is the sum over the run's domains, each of which \
         starts with a cold cache."
      Arg.flag
  and+ jobs =
    arg ~modes:[ One_shot; Listen ] [ "j"; "jobs" ] ~docv:"N"
      ~doc:
        "Process $(b,--split-input-file) chunks and $(b,--batch) files on \
         $(docv) domains in parallel over the frozen dialect registry, capped \
         at the machine's recommended domain count (default 1; 0 picks that \
         count). Every flag composes with it: output, exit code and \
         $(b,--diag-json) are byte-identical to $(b,--jobs) 1, except the \
         cache counts of $(b,--verify-stats), summed over domains that each \
         start cold. With $(b,--listen), the number of serve loops, capped \
         the same way."
      Arg.(opt int 1)
  and+ emit_bytecode =
    arg ~modes:with_connect [ "emit-bytecode" ] ~docv:"FILE"
      ~doc:
        "Write the processed IR as versioned binary bytecode to $(docv) ('-' \
         for stdout) instead of re-printing it as text. Each processed chunk \
         becomes one self-delimiting bytecode document; under $(b,--batch) \
         the documents of every file are concatenated in input order \
         (bytecode needs no headers or separators). Composes with \
         $(b,--split-input-file), $(b,--batch) and $(b,--jobs)."
      Arg.(opt (some string) None)
  and+ load_bytecode =
    arg ~modes:one_shot [ "load-bytecode" ]
      ~doc:
        "Require bytecode input: inputs that do not start with the bytecode \
         magic are rejected. The input format is always detected \
         automatically (magic sniffing, stdin included); this flag only \
         turns a silent fall-back to the text parser into an error, for \
         pipelines that expect pre-compiled bytecode."
      Arg.flag
  and+ emit_dialect_bytecode =
    arg ~modes:with_servers [ "emit-dialect-bytecode" ] ~docv:"FILE"
      ~doc:
        "Write every dialect registered in this run ($(b,--corpus), \
         $(b,--cmath) and $(b,-d) files, in registration order) as a \
         dialect pack, bytecode modules of irdl.* ops that print as IR, \
         to $(docv) ('-' for stdout). A later run warm-starts by passing \
         the pack to $(b,-d), skipping IRDL parsing and resolution."
      Arg.(opt (some string) None)
  and+ failpoints =
    arg ~modes:with_servers [ "failpoints" ] ~docv:"SPEC"
      ~doc:
        ("Arm fault-injection seams: a comma-separated list of $(i,seam[:K]) \
          entries (inject at every K-th hit within a document, that is one \
          input chunk or one server request, so $(b,--jobs) does not move \
          the faults; default every hit). Seams: "
        ^ String.concat ", " Failpoints.seams
        ^ "; a one-shot run never passes pool.task, which a server passes \
           once per request and counts across requests. A bad $(docv) \
           exits 1. \
           Injected faults surface as structured internal-error diagnostics \
           (a one-shot run exits 1 for parse and decode faults, 2 for verify \
           faults); a server answers the poisoned request and keeps running."
        )
      Arg.(opt (some string) None)
  and+ max_ops =
    arg ~modes:every_mode [ "max-ops" ] ~docv:"N"
      ~doc:
        "Abort parsing/decoding after $(docv) operations with a \
         resource_exhausted diagnostic (0 = unlimited)."
      Arg.(opt int 0)
  and+ max_region_depth =
    arg ~modes:every_mode [ "max-region-depth" ] ~docv:"N"
      ~doc:
        "Cap region nesting at $(docv) levels; deeper input is rejected with \
         a resource_exhausted diagnostic (0 = unlimited)."
      Arg.(opt int 0)
  and+ max_payload_bytes =
    arg ~modes:every_mode [ "max-payload-bytes" ] ~docv:"N"
      ~doc:
        "Reject inputs larger than $(docv) bytes with a resource_exhausted \
         diagnostic; a server discards oversized request payloads without \
         buffering them (0 = unlimited)."
      Arg.(opt int 0)
  and+ deadline_ms =
    arg ~modes:with_connect [ "deadline-ms" ] ~docv:"MS"
      ~doc:
        "Give up after $(docv) milliseconds (monotonic clock, checked at \
         operation boundaries) with a deadline_exceeded diagnostic (0 = no \
         deadline)."
      Arg.(opt int 0)
  in
  {
    connect; serve; listen; input; batch; dialect_files; pattern_files;
    corpus; cmath; strict; generic; verify_only; split_input_file;
    verify_diagnostics; max_errors; diag_json; pipeline; verify_each;
    print_ir_before; print_ir_after; print_ir_before_all;
    print_ir_after_all; pass_timing; pass_timing_json; verify_stats; jobs;
    emit_bytecode; load_bytecode; emit_dialect_bytecode; failpoints;
    deadline_ms;
    limits =
      Limits.create ~max_payload_bytes ~max_ops ~max_depth:max_region_depth ();
  }

let usage_error fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "irdl-opt: %s@." msg;
      exit 1)
    fmt

(* The run's mode, once the command line is known to mean one thing: a
   flag that the mode would ignore, two flags that ask for different
   outputs, or a pass-manager flag with no pipeline is rejected here,
   before anything loads, binds or connects. *)
let check o uses =
  let mode =
    if Option.is_some o.connect then Connect
    else if o.serve then Serve
    else if Option.is_some o.listen then Listen
    else One_shot
  in
  List.iter
    (fun u ->
      if not (List.mem mode u.modes) then
        usage_error "%s cannot be combined with %s" u.flag (mode_name mode))
    uses;
  (* Under --serve stdout is the response stream. *)
  if mode = Serve && o.emit_dialect_bytecode = Some "-" then
    usage_error "--emit-dialect-bytecode - cannot be combined with %s"
      (mode_name mode);
  List.iter
    (fun u ->
      List.iter
        (fun x ->
          if List.exists (fun v -> v.flag = x) uses then
            usage_error "%s cannot be combined with %s" u.flag
              (if x = "INPUT" then "a positional INPUT" else x))
        u.excludes)
    uses;
  (if Option.is_none o.pipeline && o.pattern_files = [] then
     match List.find_opt (fun u -> u.passes) uses with
     | Some u -> usage_error "%s requires --pass-pipeline or -p" u.flag
     | None -> ());
  mode

(* Arm the seams of [spec], each one that this mode passes. *)
let arm_failpoints mode spec =
  (match Failpoints.configure spec with
  | Ok () -> ()
  | Error msg -> usage_error "--failpoints: %s" msg);
  List.iter
    (fun (seam, _, _) ->
      if not (List.mem seam Failpoints.seams) then
        usage_error "--failpoints: unknown seam '%s' (seams: %s)" seam
          (String.concat ", " Failpoints.seams)
      else if seam = "pool.task" && mode = One_shot then
        usage_error "--failpoints: seam 'pool.task' is passed only by \
                     --serve and --listen")
    (Failpoints.armed ())

let run (o, uses) =
  let mode = check o uses in
  (* Warnings only: Native's missing-hook warning and the unused-patterns
     warning below. *)
  Logs.set_reporter (Logs_fmt.reporter ());
  (* Fault-injection seams, armed before anything parses. *)
  Option.iter (arm_failpoints mode) o.failpoints;
  (* The run's one output kind: what a --connect request asks for, and
     what the sink of each one-shot chunk produces. *)
  let kind =
    if o.verify_only || o.verify_diagnostics then Server.Verify
    else if Option.is_some o.emit_bytecode then Server.Emit_bytecode
    else Server.Print
  in
  (* Client mode: one framed request against a resident server; the
     response's diagnostics (pre-rendered, byte-identical to a one-shot
     run) go to stderr, the output to stdout, and the exit code mirrors
     the one-shot convention. No dialects are loaded here — the server
     holds the registry. *)
  (match o.connect with
  | None -> ()
  | Some path ->
      let file = Option.value o.input ~default:"-" in
      let payload =
        try Source.contents (Source.read file)
        with Sys_error msg -> usage_error "%s" msg
      in
      (match
         Server.roundtrip ~path ~kind ~file ~deadline_ms:o.deadline_ms
           ~limits:o.limits payload
       with
      | Error msg ->
          Fmt.epr "irdl-opt: --connect: %s@." msg;
          exit 4
      | Ok rs ->
          prerr_string rs.Server.rs_diags;
          (match o.emit_bytecode with
          | Some out when rs.Server.rs_output <> "" ->
              write_out ~std:stdout out [ rs.Server.rs_output ]
          | _ -> print_string rs.Server.rs_output);
          exit (Server.status_exit_code rs.Server.rs_status)));
  let engine = Diag.Engine.create ~max_errors:o.max_errors () in
  (* Under --verify-diagnostics the produced diagnostics are consumed by
     the matcher instead of printed; only harness failures reach stderr. *)
  if not o.verify_diagnostics then
    Diag.Engine.add_handler engine (Diag.Engine.printer Fmt.stderr);
  let parse_failed = ref false and verify_failed = ref false in
  let ctx = Irdl_ir.Context.create () in
  let native = Irdl_core.Native.create ~strict:o.strict () in
  if o.cmath then Irdl_dialects.Cmath.register_hooks native;
  let finish code =
    Option.iter
      (fun path -> write_out ~std:stdout path [ Diag.Engine.to_json engine ])
      o.diag_json;
    if o.verify_stats then
      Fmt.epr "verification cache: %a@." Irdl_ir.Context.pp_verify_stats
        ((Irdl_ir.Context.stats ctx).st_verify);
    exit code
  in
  (* Dialect definitions: bundled corpus, cmath, then user files. The
     bundled dialects are packs encoded from their IRDL text at build time
     (lib/bundled), so they skip the text parse and resolve and are only
     lifted and registered here. They are not user input; a failure there
     is a build bug. Every resolved dialect is remembered in registration
     order so --emit-dialect-bytecode can serialize the whole registry. *)
  let resolved_dialects = ref [] in
  let note_dialects dls =
    resolved_dialects := List.rev_append dls !resolved_dialects
  in
  let load_bundled pack =
    match Frontend.load_dialects ~native ctx (Source.Binary pack) with
    | Ok dls -> note_dialects dls
    | Error d -> fail_diag d
  in
  if o.corpus then load_bundled Bundled.corpus;
  if o.cmath then load_bundled Bundled.cmath;
  (* User dialect files: fail-soft, format-sniffed. IRDL text goes through
     parse+resolve; a bytecode dialect pack (--emit-dialect-bytecode of an
     earlier run) skips both. Every error in every file is reported;
     definitions that survive are registered so later stages still have
     something to check against. Under --verify-diagnostics the
     annotations of each IRDL text file are scanned from the same read. *)
  let errors_before_frontend = Diag.Engine.error_count engine in
  let dialect_scans =
    List.filter_map
      (fun path ->
        let source = Source.classify (read_file path) in
        (match Frontend.load_dialects ~native ~file:path ~engine ctx source with
        | Ok dls -> note_dialects dls
        | Error d -> Diag.Engine.emit engine d);
        match source with
        | Source.Text (src, _) when o.verify_diagnostics ->
            Some (Harness.scan_expectations ~file:path src)
        | _ -> None)
      o.dialect_files
  in
  Option.iter
    (fun out ->
      match
        Bytecode.Write.dialects_to_string (List.rev !resolved_dialects)
      with
      | Ok blob -> write_out ~std:stdout out [ blob ]
      | Error d -> fail_diag d)
    o.emit_dialect_bytecode;
  (* Textual rewrite patterns (fully dynamic pattern-based flow, paper §3);
     they parameterize the 'canonicalize' pass. *)
  let patterns =
    List.concat_map
      (fun path ->
        match
          Irdl_rewrite.Textual.parse_patterns ctx ~file:path (read_file path)
        with
        | Ok ps -> ps
        | Error d ->
            Diag.Engine.emit engine d;
            [])
      o.pattern_files
  in
  if Diag.Engine.error_count engine > errors_before_frontend then
    parse_failed := true;
  (* Resolve the pipeline before touching the input so a malformed pipeline
     fails fast. Pipeline text carries no annotations to expect diagnostics
     against, so this is fatal even under --verify-diagnostics. Passes are
     stateless closures, shared by every chunk task. *)
  let passes =
    match (o.pipeline, patterns) with
    | None, [] -> []
    | src, _ -> (
        (* -p patterns with no --pass-pipeline run as 'canonicalize'. *)
        match
          Irdl_pass.Pipeline.parse
            ~available:(Irdl_pass.Passes.builtin ~patterns ())
            (Option.value src ~default:"canonicalize")
        with
        | Ok passes -> passes
        | Error d ->
            Diag.Engine.emit engine d;
            if o.verify_diagnostics then Fmt.epr "%a@." Diag.pp d;
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
  if !parse_failed && not o.verify_diagnostics then finish 1;
  (* Server modes: the registry loaded above becomes the resident corpus;
     requests are served until EOF (--serve) or shutdown. The exit is
     clean even on SIGTERM/SIGINT — in-flight requests drain first. *)
  if mode = Serve || mode = Listen then begin
    let domains = jobs_domains o.jobs and generic = o.generic in
    let config = { Server.limits = o.limits; domains; generic } in
    Server.install_signal_handlers ();
    (match o.listen with
    | Some path ->
        Gc.set { (Gc.get ()) with space_overhead = listen_space_overhead };
        ignore (Server.serve_unix ~config ctx ~path ())
    | None ->
        Server.serve_fd ~config ctx ~in_fd:Unix.stdin ~out_fd:Unix.stdout ()
        |> ignore);
    finish 0
  end;
  (* Run the pipeline over [ops] (even over an empty module: the timing
     report is still produced, with every pass at zero ops): its report
     when every pass ran, and the diagnostics of a failing pass or of
     re-verifying the transformed IR. *)
  let run_passes ?dump ops =
    let mgr =
      Irdl_pass.Pass_manager.create ~verify_each:o.verify_each
        ~print_ir_before:o.print_ir_before ~print_ir_after:o.print_ir_after
        ~print_ir_before_all:o.print_ir_before_all
        ~print_ir_after_all:o.print_ir_after_all ?dump passes
    in
    match Irdl_pass.Pass_manager.run mgr ctx ops with
    | Error d -> (None, [ d ])
    | Ok report ->
        (* Whatever ran — CSE and DCE included — the transformed IR must
           still verify, pipeline instrumentation or not. *)
        (Some report, Irdl_ir.Verifier.verify_ops_all ctx ops)
  in
  let write_timing report =
    Option.iter
      (fun path ->
        write_out ~std:stderr path
          [ Fmt.str "%a" Irdl_pass.Pass_manager.pp_report report ])
      o.pass_timing;
    Option.iter
      (fun path ->
        write_out ~std:stdout path
          [ Irdl_pass.Pass_manager.report_to_json report ])
      o.pass_timing_json
  in
  (* The one-shot budget. The deadline clock starts here — dialect loading
     is setup, not input processing. *)
  let run_limits =
    if o.deadline_ms > 0 then
      Limits.with_deadline_ms o.limits o.deadline_ms
    else o.limits
  in
  (* One chunk through the chunk driver, against the task's own engine. A
     task renders nothing: it hands back its diagnostics, IR dumps and
     timing report in the order they happened, the errors its engine
     suppressed and its outcome. A chunk that fails to parse or verify
     never blocks the chunks after it. *)
  let chunk_task path chunk () =
    let engine = Diag.Engine.create ~max_errors:o.max_errors () in
    let events = ref [] in
    Diag.Engine.add_handler engine (fun d -> events := Diagnostic d :: !events);
    let outcome =
      if o.load_bytecode && not (Source.is_binary chunk) then begin
        Diag.Engine.emit engine
          (Diag.error
             ~loc:(Irdl_support.Loc.point (Irdl_support.Loc.start_of_file path))
             "--load-bytecode: input is not IRDL bytecode (bad magic)");
        { Frontend.parse_failed = true; verify_failed = false; output = None }
      end
      else
        let sink = Server.sink ~generic:o.generic ctx kind in
        let dump ctx header ops =
          events :=
            Ir_dump (Irdl_pass.Pass_manager.render_dump ctx header ops)
            :: !events
        in
        let pipeline ops =
          let report, ds = run_passes ~dump ops in
          Option.iter (fun r -> events := Timing r :: !events) report;
          ds
        in
        Frontend.run ~file:path ~engine ~limits:run_limits ~verify:true ?sink
          ?pipeline:(if passes = [] then None else Some pipeline)
          ctx chunk
    in
    (List.rev !events, Diag.Engine.suppressed_count engine, outcome)
  in
  (* Every input document, read up front and classified (text or
     bytecode, sniffed by magic; [Source.read] peeks stdin without
     seeking). Under --verify-diagnostics one walk of a text document
     gives both its chunks and its annotations, kept for the check at the
     end. *)
  let docs =
    try
      (match (o.batch, o.input) with
      | Some bpath, _ ->
          List.map
            (fun p -> (p, Source.classify (read_file p)))
            (batch_inputs bpath)
      | None, Some path -> [ (path, Source.read path) ]
      | None, None -> [])
      |> List.map (fun (path, payload) ->
             match payload with
             | Source.Text (src, _) when o.verify_diagnostics ->
                 (path, payload, Some (Harness.scan ~file:path src))
             | _ -> (path, payload, None))
    with Sys_error msg ->
      Fmt.epr "irdl-opt: %s@." msg;
      finish 1
  in
  (match docs with
  | [] when o.batch = None ->
      if passes <> [] then begin
        let report, ds = run_passes [] in
        Option.iter write_timing report;
        List.iter (Diag.Engine.emit engine) ds;
        if ds <> [] then verify_failed := true
      end
      else if not o.verify_diagnostics then
        print_string (Server.registered_dialects ctx)
  | [] -> () (* --batch expanded to no files *)
  | _ when !parse_failed -> ()
  | docs ->
      (* The unit of work is one chunk of one document: --split-input-file
         cuts text at '// -----' lines and bytecode at document
         boundaries, --batch contributes one document per file; both
         compose. Each text document is registered here, once, so that
         this domain renders every snippet; one that --load-bytecode
         rejects stays unregistered and whole, for one error with no
         snippet. *)
      let chunks_of path payload scan =
        match payload with
        | Source.Text _ when o.load_bytecode -> [ payload ]
        | Source.Text (src, _) -> (
            Diag.Sources.register ~file:path src;
            match scan with
            | Some (windows, _) when o.split_input_file ->
                List.map (fun w -> Source.Text (src, w)) windows
            | _ -> Source.chunks ~split:o.split_input_file payload)
        | Source.Binary _ -> Source.chunks ~split:o.split_input_file payload
      in
      let tasks =
        List.concat
          (List.mapi
             (fun di (path, payload, scan) ->
               List.map
                 (fun chunk -> (di, path, chunk))
                 (chunks_of path payload scan))
             docs)
        |> Array.of_list
      in
      (* Registration is over: freeze the context so every domain can look
         definitions up (and verify against its own cache shard) without
         synchronization. With one domain the tasks run in order on this
         one, and nothing is spawned. *)
      Irdl_ir.Context.freeze ctx;
      let results =
        Domain_pool.with_pool ~domains:(jobs_domains o.jobs) (fun pool ->
            Domain_pool.run pool
              (Array.map (fun (_, path, chunk) -> chunk_task path chunk) tasks))
      in
      (* Replay in input order through the main engine: its printer
         renders, the run-wide --max-errors cap applies and --diag-json
         counts. The run's one timing report, summed over its chunks,
         goes where a one-chunk run's goes: with the last chunk's, before
         the diagnostics of re-verifying that chunk. So --jobs changes no
         byte of any output. *)
      let reports =
        Array.to_list results
        |> List.concat_map (fun (events, _, _) ->
               List.filter_map
                 (function Timing r -> Some r | _ -> None)
                 events)
      in
      let untimed = ref (List.length reports) in
      let doc_outs = Array.make (List.length docs) [] in
      Array.iteri
        (fun i (events, suppressed, (r : Frontend.outcome)) ->
          let di, _, _ = tasks.(i) in
          List.iter
            (function
              | Diagnostic d -> Diag.Engine.emit engine d
              | Ir_dump s -> Fmt.epr "%s@." s
              | Timing _ ->
                  decr untimed;
                  if !untimed = 0 then
                    Option.iter write_timing
                      (Irdl_pass.Pass_manager.merge_reports reports))
            events;
          Diag.Engine.add_suppressed engine suppressed;
          if r.parse_failed then parse_failed := true;
          if r.verify_failed then verify_failed := true;
          Option.iter (fun x -> doc_outs.(di) <- x :: doc_outs.(di)) r.output)
        results;
      (match o.emit_bytecode with
      | Some out ->
          (* Bytecode documents are self-delimiting and concatenate, so
             the assembled output is the plain concatenation in input
             order — headers or separators would corrupt the stream. *)
          let blobs = List.concat_map List.rev (Array.to_list doc_outs) in
          if blobs <> [] then
            write_out ~std:stdout out (List.map Frontend.Sink.contents blobs)
      | None -> (
          match o.batch with
          | None -> print_outs (List.rev doc_outs.(0))
          | Some _ ->
              List.iteri
                (fun di (path, _, _) ->
                  print_outs
                    ~header:("// ===== " ^ path ^ " =====\n")
                    (List.rev doc_outs.(di)))
                docs)));
  if o.verify_diagnostics then begin
    (* Expectations come from every input document and every -d dialect
       file. Bytecode carries no comments to annotate, so binary payloads
       contribute none. *)
    let expectations, scan_errors =
      List.split
        (dialect_scans
        @ List.filter_map (fun (_, _, scan) -> Option.map snd scan) docs)
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

let cmd =
  let doc = "parse, verify and transform IR against IRDL-defined dialects" in
  Cmd.v (Cmd.info "irdl-opt" ~doc) Term.(const run $ options)

(* With SIGPIPE ignored, a downstream reader that stops early (irdl-opt
   ... | head) surfaces as EPIPE on write instead of killing the process;
   treat it as a clean early exit, like every well-behaved filter. *)
let is_broken_pipe = function
  | Unix.Unix_error (Unix.EPIPE, _, _) -> true
  (* OCaml channels report the errno text, after the file name if any. *)
  | Sys_error msg -> String.ends_with ~suffix:"Broken pipe" msg
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
