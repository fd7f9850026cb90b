(* See the interface. *)

open Irdl_support
module Context = Irdl_ir.Context
module Frontend = Irdl_bytecode.Frontend
module Source = Frontend.Source

type kind = Parse | Verify | Print | Emit_bytecode | Ping | Stats | Shutdown

type status =
  | Ok_
  | Parse_error
  | Verify_error
  | Resource_exhausted
  | Deadline_exceeded
  | Internal_error
  | Invalid_request

let kind_to_string = function
  | Parse -> "parse"
  | Verify -> "verify"
  | Print -> "print"
  | Emit_bytecode -> "emit-bytecode"
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

let kind_of_string = function
  | "parse" -> Some Parse
  | "verify" -> Some Verify
  | "print" -> Some Print
  | "emit-bytecode" -> Some Emit_bytecode
  | "ping" -> Some Ping
  | "stats" -> Some Stats
  | "shutdown" -> Some Shutdown
  | _ -> None

let status_to_string = function
  | Ok_ -> "ok"
  | Parse_error -> "parse_error"
  | Verify_error -> "verify_error"
  | Resource_exhausted -> "resource_exhausted"
  | Deadline_exceeded -> "deadline_exceeded"
  | Internal_error -> "internal_error"
  | Invalid_request -> "invalid_request"

let status_of_string = function
  | "ok" -> Some Ok_
  | "parse_error" -> Some Parse_error
  | "verify_error" -> Some Verify_error
  | "resource_exhausted" -> Some Resource_exhausted
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "internal_error" -> Some Internal_error
  | "invalid_request" -> Some Invalid_request
  | _ -> None

(* Parse-stage failures — including blown budgets, which one-shot runs
   report during the parse stage — exit 1, verify failures 2, mirroring
   irdl-opt; so the cram determinism gate can compare codes directly. *)
let status_exit_code = function
  | Ok_ -> 0
  | Parse_error | Resource_exhausted | Deadline_exceeded | Invalid_request -> 1
  | Verify_error -> 2
  | Internal_error -> 4

type request = {
  rq_id : string;
  rq_kind : kind;
  rq_file : string;
  rq_limits : Limits.t;
  rq_payload : string;
}

type response = {
  rs_id : string;
  rs_status : status;
  rs_errors : int;
  rs_diags : string;
  rs_output : string;
}

type config = { limits : Limits.t; domains : int; generic : bool }

let default_config = { limits = Limits.unlimited; domains = 0; generic = false }

(* One diagnostic, rendered exactly as the one-shot stderr printer would:
   [Engine.printer] is [Fmt.pf ppf "%a@." pp_rendered], i.e. rendered text
   plus one newline. *)
let render_diag d = Fmt.str "%a" Diag.pp_rendered d ^ "\n"

let synth_response ~id ~status d =
  {
    rs_id = id;
    rs_status = status;
    rs_errors = (match status with Ok_ -> 0 | _ -> 1);
    rs_diags = (match d with None -> "" | Some d -> render_diag d);
    rs_output = "";
  }

let invalid_response ~id fmt =
  Fmt.kstr
    (fun msg ->
      synth_response ~id ~status:Invalid_request
        (Some (Diag.make ("invalid request: " ^ msg))))
    fmt

let oversized_response ~id cap =
  synth_response ~id ~status:Resource_exhausted
    (Some
       (Diag.make ~code:Limits.resource_exhausted
          (Printf.sprintf
             "request payload exceeds the server payload limit of %d bytes" cap)))

let parse_request ~header ~payload =
  let get = Wire.header_get header in
  let id = Option.value (get "id") ~default:"" in
  let int_field name =
    match get name with
    | None -> Ok 0
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n >= 0 -> Ok n
        | _ -> Error (invalid_response ~id "bad integer for '%s': %s" name v))
  in
  let ( let* ) = Result.bind in
  match get "kind" with
  | None -> Error (invalid_response ~id "missing 'kind' header")
  | Some k -> (
      match kind_of_string k with
      | None -> Error (invalid_response ~id "unknown kind '%s'" k)
      | Some kind ->
          let* max_ops = int_field "max-ops" in
          let* max_depth = int_field "max-depth" in
          let* max_payload_bytes = int_field "max-bytes" in
          let* deadline_ms = int_field "deadline-ms" in
          let limits =
            Limits.create ~max_payload_bytes ~max_ops ~max_depth ()
          in
          (* The clock starts when the frame is decoded. *)
          let limits =
            if deadline_ms > 0 then Limits.with_deadline_ms limits deadline_ms
            else limits
          in
          Ok
            {
              rq_id = id;
              rq_kind = kind;
              rq_file = Option.value (get "file") ~default:"<request>";
              rq_limits = limits;
              rq_payload = payload;
            })

let request_header rq ~deadline_ms =
  let add name v kvs = if v = 0 then kvs else (name, string_of_int v) :: kvs in
  [ ("id", rq.rq_id); ("kind", kind_to_string rq.rq_kind);
    ("file", rq.rq_file) ]
  |> add "max-ops" rq.rq_limits.Limits.max_ops
  |> add "max-depth" rq.rq_limits.Limits.max_depth
  |> add "max-bytes" rq.rq_limits.Limits.max_payload_bytes
  |> add "deadline-ms" deadline_ms

(* ------------------------------------------------------------------ *)
(* Request processing                                                  *)
(* ------------------------------------------------------------------ *)

(* Highest-priority classification wins: a blown deadline outranks the
   parse error it interrupted, and either budget code outranks the
   ordinary failures. *)
let classify engine ~parse_failed ~verify_failed =
  let diags = Diag.Engine.diagnostics engine in
  let has code = List.exists (fun (d : Diag.t) -> d.code = Some code) diags in
  if has Limits.deadline_exceeded then Deadline_exceeded
  else if has Limits.resource_exhausted then Resource_exhausted
  else if has "injected_fault" then Internal_error
  else if parse_failed then Parse_error
  else if verify_failed then Verify_error
  else Ok_

let sink ~generic ctx = function
  | Print -> Some (Frontend.Sink.text ~generic ctx)
  | Emit_bytecode -> Some (Frontend.Sink.bytecode ())
  | Parse | Verify | Ping | Stats | Shutdown -> None

(* The module-processing kinds run [irdl-opt]'s chunk driver,
   [Frontend.run]. The engine's handler renders into a buffer, so the
   response's diagnostics section is byte-for-byte the one-shot stderr
   text. *)
let run_module ctx config rq =
  let engine = Diag.Engine.create () in
  let dbuf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer dbuf in
  Diag.Engine.add_handler engine (Diag.Engine.printer ppf);
  let sink = sink ~generic:config.generic ctx rq.rq_kind in
  let r =
    Frontend.run ~file:rq.rq_file ~engine
      ~limits:(Limits.meet config.limits rq.rq_limits)
      ~verify:(rq.rq_kind <> Parse) ?sink ctx
      (Source.classify rq.rq_payload)
  in
  Format.pp_print_flush ppf ();
  {
    rs_id = rq.rq_id;
    rs_status =
      classify engine ~parse_failed:r.parse_failed
        ~verify_failed:r.verify_failed;
    rs_errors = Diag.Engine.error_count engine;
    rs_diags = Buffer.contents dbuf;
    rs_output =
      (match (r.output, rq.rq_kind) with
      (* Text output gets the final newline [Fmt.pr "%s@."] would add;
         bytecode is the raw blob. *)
      | Some out, Print -> Frontend.Sink.contents out ^ "\n"
      | Some out, _ -> Frontend.Sink.contents out
      | None, _ -> "");
  }

let registered_dialects ctx =
  Fmt.str "registered dialects: %s@."
    (String.concat ", "
       (List.map
          (fun (d : Context.dialect) -> d.d_name)
          (Context.dialects ctx)))

let handle ctx config rq =
  (* Per-request source hygiene: the request's buffer is registered (in
     this domain) by the parse; drop it afterwards so a long-lived worker
     does not retain every payload it ever served. *)
  Fun.protect
    ~finally:(fun () -> if rq.rq_file <> "" then Diag.Sources.drop rq.rq_file)
  @@ fun () ->
  try
    (* The per-request fault seam, inside the catch-all: an injected fault
       must poison exactly one response. *)
    Failpoints.hit "pool.task";
    match rq.rq_kind with
    | Ping | Shutdown -> synth_response ~id:rq.rq_id ~status:Ok_ None
    | Stats ->
        {
          (synth_response ~id:rq.rq_id ~status:Ok_ None) with
          rs_output = registered_dialects ctx;
        }
    | Parse | Verify | Print | Emit_bytecode -> run_module ctx config rq
  with
  | Out_of_memory -> raise Out_of_memory
  | Failpoints.Injected name ->
      synth_response ~id:rq.rq_id ~status:Internal_error
        (Some
           (Diag.make ~code:"injected_fault"
              ("internal error: injected fault at failpoint '" ^ name ^ "'")))
  | exn ->
      synth_response ~id:rq.rq_id ~status:Internal_error
        (Some (Diag.make ("internal error: " ^ Printexc.to_string exn)))

let response_frame rs =
  let header =
    [ ("id", rs.rs_id); ("status", status_to_string rs.rs_status);
      ("errors", string_of_int rs.rs_errors) ]
  in
  Wire.encode_response ~header ~diags:rs.rs_diags ~output:rs.rs_output

let response_of_wire ~header ~diags ~output =
  let get = Wire.header_get header in
  match Option.bind (get "status") status_of_string with
  | None -> Error "response has no valid 'status' header"
  | Some status ->
      Ok
        {
          rs_id = Option.value (get "id") ~default:"";
          rs_status = status;
          rs_errors =
            Option.value ~default:0
              (Option.bind (get "errors") int_of_string_opt);
          rs_diags = diags;
          rs_output = output;
        }

(* ------------------------------------------------------------------ *)
(* Shutdown coordination                                               *)
(* ------------------------------------------------------------------ *)

let stop = Atomic.make false
let request_shutdown () = Atomic.set stop true
let shutdown_requested () = Atomic.get stop
let reset_shutdown () = Atomic.set stop false

let install_signal_handlers () =
  let h = Sys.Signal_handle (fun _ -> request_shutdown ()) in
  Sys.set_signal Sys.sigterm h;
  Sys.set_signal Sys.sigint h

(* ------------------------------------------------------------------ *)
(* Serve loops                                                         *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* One serve loop's state: the context and configuration it answers
   with, its read buffer and the number of requests it answered. *)
type loop = {
  ctx : Context.t;
  cfg : config;
  buf : Bytes.t;
  mutable answered : int;
}

(* One client: its input and output descriptors (stdin and stdout for
   [serve_fd], one socket for both in [serve_unix]) and its frame reader. *)
type conn = {
  c_in : Unix.file_descr;
  c_out : Unix.file_descr;
  c_reader : Wire.reader;
  mutable c_done : bool;  (** end of input, a corrupt frame, or hung up *)
}

let conn config ~in_fd ~out_fd =
  {
    c_in = in_fd;
    c_out = out_fd;
    c_reader =
      Wire.reader ~max_payload:config.limits.Limits.max_payload_bytes ();
    c_done = false;
  }

let respond lp = function
  | Wire.Corrupt msg -> invalid_response ~id:"" "%s" msg
  | Wire.Frame { header; payload; oversized } -> (
      let id = Option.value (Wire.header_get header "id") ~default:"" in
      if oversized then
        oversized_response ~id lp.cfg.limits.Limits.max_payload_bytes
      else
        match parse_request ~header ~payload with
        | Error rs -> rs
        | Ok rq ->
            if rq.rq_kind = Shutdown then request_shutdown ();
            handle lp.ctx lp.cfg rq)

(* Answer every frame the reader holds, in arrival order, each written
   before the next is polled. A corrupt frame is answered and ends the
   connection; a client that hung up loses its responses but must not take
   the server down. *)
let rec answer lp c =
  if not c.c_done then
    match Wire.poll c.c_reader with
    | None -> ()
    | Some e ->
        let rs = respond lp e in
        lp.answered <- lp.answered + 1;
        (try write_all c.c_out (response_frame rs)
         with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
           c.c_done <- true);
        (match e with Wire.Corrupt _ -> c.c_done <- true | Wire.Frame _ -> ());
        answer lp c

(* One read, and the answers to the frames it completes. *)
let service lp c =
  match Unix.read c.c_in lp.buf 0 (Bytes.length lp.buf) with
  | 0 -> c.c_done <- true
  | n ->
      Wire.feed_bytes c.c_reader lp.buf ~off:0 ~len:n;
      answer lp c
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      c.c_done <- true

(* The one serve loop: wait for input on [conns] and, when given, the
   shared non-blocking listener [lfd], and answer each frame as soon as a
   read completes it. A frame already read is answered before the loop
   looks at the shutdown flag, so shutdown leaves nothing accepted
   unanswered. Runs until shutdown, or until the last connection is done
   when there is no listener. Returns the number of requests answered. *)
let serve_loop ctx config ?lfd conns =
  let lp = { ctx; cfg = config; buf = Bytes.create 65536; answered = 0 } in
  let conns = ref conns in
  (* With a listener, every connection is one this loop accepted; without
     one, the connection is its caller's to close. *)
  let close c =
    if lfd <> None then try Unix.close c.c_in with Unix.Unix_error _ -> ()
  in
  (* Out of descriptors: skip [lfd] for one select round, so the held
     connections are served and closed instead of spinning on it. *)
  let accepting = ref true in
  let rec go () =
    if not (shutdown_requested () || (lfd = None && !conns = [])) then begin
      let fds = List.map (fun c -> c.c_in) !conns in
      let fds =
        match lfd with Some l when !accepting -> l :: fds | _ -> fds
      in
      accepting := true;
      match Unix.select fds [] [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | ready, _, _ ->
          (match lfd with
          | Some l when List.mem l ready -> (
              match Unix.accept ~cloexec:true l with
              | fd, _ ->
                  (* Some systems hand the listener's O_NONBLOCK down. *)
                  Unix.clear_nonblock fd;
                  conns := conn config ~in_fd:fd ~out_fd:fd :: !conns
              (* Another loop won the race, or the client gave up. *)
              | exception
                  Unix.Unix_error
                    (Unix.(EINTR | EAGAIN | EWOULDBLOCK | ECONNABORTED), _, _)
                ->
                  ()
              | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _)
                ->
                  accepting := false)
          | _ -> ());
          List.iter
            (fun c -> if List.mem c.c_in ready then service lp c)
            !conns;
          conns :=
            List.filter
              (fun c ->
                if c.c_done then close c;
                not c.c_done)
              !conns;
          go ()
    end
  in
  Fun.protect ~finally:(fun () -> List.iter close !conns) go;
  lp.answered

let serve_fd ?(config = default_config) ctx ~in_fd ~out_fd () =
  Context.freeze ctx;
  serve_loop ctx config [ conn config ~in_fd ~out_fd ]

(* ------------------------------------------------------------------ *)
(* Socket listener                                                     *)
(* ------------------------------------------------------------------ *)

let serve_unix ?(config = default_config) ctx ~path () =
  Context.freeze ctx;
  let sources = Diag.Sources.snapshot () in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 64;
  Unix.set_nonblock lfd;
  let loops =
    if config.domains > 0 then config.domains
    else Domain.recommended_domain_count ()
  in
  (* One batch of [loops] tasks on [loops] participants: a loop returns
     only at shutdown, so each participant runs exactly one of them. A
     loop that fails stops the others, which drain; the batch re-raises
     its failure once all have joined, so no capacity is lost silently. *)
  let run_loop () =
    (* The loader domain's sources, so diagnostics render dialect-file
       snippets as a one-shot run does. *)
    Diag.Sources.preload sources;
    try serve_loop ctx config ~lfd []
    with exn ->
      let bt = Printexc.get_raw_backtrace () in
      request_shutdown ();
      Printexc.raise_with_backtrace exn bt
  in
  Domain_pool.with_pool ~domains:loops (fun pool ->
      Domain_pool.run pool (Array.make loops run_loop))
  |> Array.fold_left ( + ) 0

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

let read_exact fd n =
  let b = Bytes.create n in
  let rec go off =
    if off = n then Ok (Bytes.to_string b)
    else
      match Unix.read fd b off (n - off) with
      | 0 -> Error "connection closed mid-response"
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let roundtrip ~path ~kind ?(id = "1") ?(file = "<request>") ?(deadline_ms = 0)
    ?(limits = Limits.unlimited) payload =
  match Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | exception Unix.Unix_error (e, _, _) ->
          Error ("connect: " ^ Unix.error_message e)
      | () -> (
          let rq =
            {
              rq_id = id;
              rq_kind = kind;
              rq_file = file;
              rq_limits = limits;
              rq_payload = payload;
            }
          in
          let header = request_header rq ~deadline_ms in
          match write_all fd (Wire.encode_request ~header ~payload) with
          | exception Unix.Unix_error (e, _, _) ->
              Error ("send: " ^ Unix.error_message e)
          | () ->
              let ( let* ) = Result.bind in
              let* fixed = read_exact fd 16 in
              if String.sub fixed 0 4 <> Wire.response_magic then
                Error "bad response magic"
              else
                let hlen = Wire.get_u32 fixed 4
                and dlen = Wire.get_u32 fixed 8
                and olen = Wire.get_u32 fixed 12 in
                let* rest = read_exact fd (hlen + dlen + olen) in
                let* header, diags, output =
                  Wire.decode_response (fixed ^ rest)
                in
                response_of_wire ~header ~diags ~output))
