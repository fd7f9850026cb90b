(* See the interface. *)

open Irdl_support
module Context = Irdl_ir.Context
module Verifier = Irdl_ir.Verifier
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
  | Retry_later

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
  | Retry_later -> "retry_later"

let status_of_string = function
  | "ok" -> Some Ok_
  | "parse_error" -> Some Parse_error
  | "verify_error" -> Some Verify_error
  | "resource_exhausted" -> Some Resource_exhausted
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "internal_error" -> Some Internal_error
  | "invalid_request" -> Some Invalid_request
  | "retry_later" -> Some Retry_later
  | _ -> None

(* Parse-stage failures — including blown budgets, which one-shot runs
   report during the parse stage — exit 1, verify failures 2, mirroring
   irdl-opt; so the cram determinism gate can compare codes directly. *)
let status_exit_code = function
  | Ok_ -> 0
  | Parse_error | Resource_exhausted | Deadline_exceeded | Invalid_request -> 1
  | Verify_error -> 2
  | Internal_error -> 4
  | Retry_later -> 5

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
  rs_retry_after_ms : int option;
}

type config = {
  limits : Limits.t;
  max_queue : int;
  domains : int;
  generic : bool;
  retry_after_ms : int;
}

let default_config =
  {
    limits = Limits.unlimited;
    max_queue = 0;
    domains = 0;
    generic = false;
    retry_after_ms = 10;
  }

(* One diagnostic, rendered exactly as the one-shot stderr printer would:
   [Engine.printer] is [Fmt.pf ppf "%a@." pp_rendered], i.e. rendered text
   plus one newline. *)
let render_diag d = Fmt.str "%a" Diag.pp_rendered d ^ "\n"

let synth_response ?(retry_after_ms = None) ~id ~status d =
  {
    rs_id = id;
    rs_status = status;
    rs_errors = (match status with Ok_ | Retry_later -> 0 | _ -> 1);
    rs_diags = (match d with None -> "" | Some d -> render_diag d);
    rs_output = "";
    rs_retry_after_ms = retry_after_ms;
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

let shed_response ~id ~retry_after_ms =
  synth_response ~id ~status:Retry_later
    ~retry_after_ms:(Some retry_after_ms)
    (Some
       (Diag.make ~severity:Diag.Warning
          (Printf.sprintf "server busy; retry in %d ms" retry_after_ms)))

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
          (* The clock starts at acceptance: a request that then sits in
             the queue is spending its own deadline. *)
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

(* The module-processing kinds mirror [irdl-opt]'s streaming chunk driver
   exactly: parse (or decode), verify, emit and release one top-level op
   at a time; parse diagnostics flow through the engine in parse order;
   per-op verification results are held back and merged into the stable
   [verify_ops_all] order at end-of-stream, and discarded when the parse
   failed. The engine's handler renders into a buffer, so the response's
   diagnostics section is byte-for-byte the one-shot stderr text. *)
let run_module ctx config rq =
  let limits = Limits.meet config.limits rq.rq_limits in
  let engine = Diag.Engine.create () in
  let dbuf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer dbuf in
  Diag.Engine.add_handler engine (Diag.Engine.printer ppf);
  let payload = Source.classify rq.rq_payload in
  let want_verify = rq.rq_kind <> Parse in
  let want_output =
    match rq.rq_kind with Print | Emit_bytecode -> true | _ -> false
  in
  let parse_failed = ref false and verify_failed = ref false in
  let output = ref None in
  let session =
    Frontend.Stream.create ~file:rq.rq_file ~engine ~limits ctx payload
  in
  let sink =
    if not want_output then None
    else if rq.rq_kind = Emit_bytecode then Some (Frontend.Sink.bytecode ())
    else Some (Frontend.Sink.text ~generic:config.generic ctx)
  in
  let vdiags = ref [] in
  let rec drain () =
    match Frontend.Stream.next session with
    | Ok None | Error _ -> ()
    | Ok (Some op) ->
        if want_verify then
          vdiags := Verifier.verify_all ctx op :: !vdiags;
        Option.iter (fun s -> Frontend.Sink.push s op) sink;
        Frontend.Stream.release op;
        drain ()
  in
  drain ();
  if Diag.Engine.error_count engine > 0 then parse_failed := true
  else begin
    let diags = Verifier.merge_diags (List.concat (List.rev !vdiags)) in
    List.iter (Diag.Engine.emit engine) diags;
    if diags <> [] then verify_failed := true
    else
      Option.iter
        (fun s ->
          match Frontend.Sink.close s with
          | Ok out -> output := Some out
          | Error d ->
              Diag.Engine.emit engine d;
              verify_failed := true)
        sink
  end;
  Format.pp_print_flush ppf ();
  let status =
    classify engine ~parse_failed:!parse_failed ~verify_failed:!verify_failed
  in
  let rs_output =
    match (!output, rq.rq_kind) with
    (* Text output gets the final newline [Fmt.pr "%s@."] would add;
       bytecode is the raw blob. *)
    | Some o, Print -> o ^ "\n"
    | Some o, Emit_bytecode -> o
    | _ -> ""
  in
  {
    rs_id = rq.rq_id;
    rs_status = status;
    rs_errors = Diag.Engine.error_count engine;
    rs_diags = Buffer.contents dbuf;
    rs_output;
    rs_retry_after_ms = None;
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
    (* The per-request fault seam. It lives here — inside the task, inside
       the catch-all — rather than in [Domain_pool], whose contract is to
       re-raise a task exception batch-wide: an injected fault must poison
       exactly one response. *)
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
    @
    match rs.rs_retry_after_ms with
    | Some ms -> [ ("retry-after-ms", string_of_int ms) ]
    | None -> []
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
          rs_retry_after_ms = Option.bind (get "retry-after-ms") int_of_string_opt;
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

(* Requests and already-synthesized responses of one intake burst, in
   arrival order: dispatch fans the [Todo]s through the pool, then the
   responses are written back in slot order, so pipelined clients can
   match responses to requests positionally as well as by id. *)
type slot = Todo of request | Done of response

(* When unbounded, dispatch is still chunked so a pipelined flood is
   answered incrementally instead of accumulating until end of input. *)
let internal_batch = 256

type intake = {
  cfg : config;
  mutable slots : slot list;  (* reversed *)
  mutable n_todo : int;
  mutable corrupt : bool;
}

let intake cfg = { cfg; slots = []; n_todo = 0; corrupt = false }
let push i s = i.slots <- s :: i.slots

(* Accept one decoded wire event into the burst. Returns [true] when the
   caller should dispatch before accepting more (window full on an
   unbounded queue; a bounded queue sheds instead). *)
let accept ctx i event =
  match event with
  | Wire.Corrupt msg ->
      i.corrupt <- true;
      push i (Done (invalid_response ~id:"" "%s" msg));
      false
  | Wire.Frame { header; payload; oversized } ->
      let id = Option.value (Wire.header_get header "id") ~default:"" in
      if oversized then begin
        push i
          (Done (oversized_response ~id i.cfg.limits.Limits.max_payload_bytes));
        false
      end
      else (
        match parse_request ~header ~payload with
        | Error rs ->
            push i (Done rs);
            false
        | Ok ({ rq_kind = Ping | Stats | Shutdown; _ } as rq) ->
            (* Control requests are cheap; answer inline, in order. *)
            if rq.rq_kind = Shutdown then request_shutdown ();
            push i (Done (handle ctx i.cfg rq));
            false
        | Ok rq ->
            if i.cfg.max_queue > 0 && i.n_todo >= i.cfg.max_queue then begin
              push i
                (Done
                   (shed_response ~id:rq.rq_id
                      ~retry_after_ms:i.cfg.retry_after_ms));
              false
            end
            else begin
              push i (Todo rq);
              i.n_todo <- i.n_todo + 1;
              i.cfg.max_queue = 0 && i.n_todo >= internal_batch
            end)

(* Run every [Todo] of the burst with [run] (through the pool, or inline)
   and write the burst's responses, in arrival order, to [write]. Returns
   the number written. *)
let dispatch run ctx cfg sources i ~write =
  let arr = Array.of_list (List.rev i.slots) in
  i.slots <- [];
  i.n_todo <- 0;
  let todos =
    Array.of_list
      (List.filter_map
         (function Todo rq -> Some rq | Done _ -> None)
         (Array.to_list arr))
  in
  let thunks =
    Array.map
      (fun rq () ->
        Diag.Sources.preload sources;
        handle ctx cfg rq)
      todos
  in
  let results = run thunks in
  let next = ref 0 in
  Array.iter
    (fun s ->
      let rs =
        match s with
        | Done rs -> rs
        | Todo _ ->
            let rs = results.(!next) in
            incr next;
            rs
      in
      write (response_frame rs))
    arr;
  Array.length arr

let readable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let serve_fd ?(config = default_config) ctx ~in_fd ~out_fd () =
  Context.freeze ctx;
  let sources = Diag.Sources.snapshot () in
  let domains = if config.domains > 0 then Some config.domains else None in
  Domain_pool.with_pool ?domains @@ fun pool ->
  let r = Wire.reader ~max_payload:config.limits.Limits.max_payload_bytes () in
  let i = intake config in
  let answered = ref 0 in
  let flush () =
    if i.slots <> [] then
      answered :=
        !answered
        + dispatch (Domain_pool.run pool) ctx config sources i
            ~write:(write_all out_fd)
  in
  let drain_events () =
    if not i.corrupt then begin
      let rec go () =
        match Wire.poll r with
        | None -> ()
        | Some e ->
            if accept ctx i e then flush ();
            if not i.corrupt then go ()
      in
      go ()
    end
  in
  let buf = Bytes.create 65536 in
  let rec loop () =
    drain_events ();
    if i.corrupt || shutdown_requested () then flush ()
    else begin
      (* Input pause: the client went quiet mid-pipeline — answer the
         burst gathered so far instead of blocking on [read] with work
         in hand. *)
      if i.slots <> [] && not (readable in_fd) then flush ();
      if shutdown_requested () then flush ()
      else
        match Unix.read in_fd buf 0 (Bytes.length buf) with
        | 0 ->
            drain_events ();
            flush ()
        | n ->
            Wire.feed_bytes r buf ~off:0 ~len:n;
            loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    end
  in
  loop ();
  !answered

(* ------------------------------------------------------------------ *)
(* Socket listener                                                     *)
(* ------------------------------------------------------------------ *)

type conn = {
  c_fd : Unix.file_descr;
  c_reader : Wire.reader;
  c_intake : intake;
  mutable c_closed : bool;
}

(* One serve loop: accept on the shared non-blocking [lfd], own the
   connections it accepted, and answer their requests inline, in arrival
   order. Returns the number of requests answered once shutdown is
   requested and its connections are drained. *)
let serve_loop ctx config sources lfd =
  let answered = ref 0 in
  let conns = ref [] in
  (* Out of descriptors: skip [lfd] for one select round, so the held
     connections are served and closed instead of spinning on it. *)
  let accepting = ref true in
  let flush c =
    if c.c_intake.slots <> [] then
      answered :=
        !answered
        + dispatch (Array.map (fun f -> f ())) ctx config sources c.c_intake
            ~write:(fun s ->
              (* A client that hung up mid-drain loses its responses but
                 must not take the server down. *)
              try write_all c.c_fd s
              with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ())
  in
  let close_conn c =
    if not c.c_closed then begin
      c.c_closed <- true;
      try Unix.close c.c_fd with Unix.Unix_error _ -> ()
    end
  in
  let drain_events c =
    if not c.c_intake.corrupt then begin
      let rec go () =
        match Wire.poll c.c_reader with
        | None -> ()
        | Some e ->
            if accept ctx c.c_intake e then flush c;
            if not c.c_intake.corrupt then go ()
      in
      go ()
    end
  in
  let buf = Bytes.create 65536 in
  let service c =
    match Unix.read c.c_fd buf 0 (Bytes.length buf) with
    | 0 ->
        drain_events c;
        flush c;
        close_conn c
    | n ->
        Wire.feed_bytes c.c_reader buf ~off:0 ~len:n;
        drain_events c;
        if c.c_intake.corrupt then begin
          flush c;
          close_conn c
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close_conn c
  in
  let rec loop () =
    if not (shutdown_requested ()) then begin
      conns := List.filter (fun c -> not c.c_closed) !conns;
      let fds = List.map (fun c -> c.c_fd) !conns in
      let fds = if !accepting then lfd :: fds else fds in
      accepting := true;
      match Unix.select fds [] [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | ready, _, _ ->
          if List.mem lfd ready then begin
            match Unix.accept ~cloexec:true lfd with
            | fd, _ ->
                (* Some systems hand the listener's O_NONBLOCK down. *)
                Unix.clear_nonblock fd;
                conns :=
                  {
                    c_fd = fd;
                    c_reader =
                      Wire.reader
                        ~max_payload:config.limits.Limits.max_payload_bytes ();
                    c_intake = intake config;
                    c_closed = false;
                  }
                  :: !conns
            (* Another loop won the race, or the client gave up. *)
            | exception
                Unix.Unix_error
                  (Unix.(EINTR | EAGAIN | EWOULDBLOCK | ECONNABORTED), _, _) ->
                ()
            | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
                accepting := false
          end;
          List.iter
            (fun c ->
              if (not c.c_closed) && List.mem c.c_fd ready then service c)
            !conns;
          List.iter
            (fun c ->
              if (not c.c_closed) && c.c_intake.slots <> []
                 && not (readable c.c_fd)
              then flush c)
            !conns;
          loop ()
    end
  in
  Fun.protect ~finally:(fun () -> List.iter close_conn !conns) @@ fun () ->
  loop ();
  (* Shutdown: stop accepting, answer everything already taken in. *)
  List.iter
    (fun c ->
      if not c.c_closed then begin
        drain_events c;
        flush c;
        close_conn c
      end)
    !conns;
  !answered

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
  (* A loop that fails stops the others, which drain; the first failure is
     re-raised once all have joined, so no capacity is lost silently. *)
  let run_loop () =
    try Ok (serve_loop ctx config sources lfd)
    with exn ->
      let bt = Printexc.get_raw_backtrace () in
      request_shutdown ();
      Error (exn, bt)
  in
  let spawned = List.init (loops - 1) (fun _ -> Domain.spawn run_loop) in
  (* This domain's loop runs before any join, not after. *)
  let mine = run_loop () in
  List.fold_left
    (fun n -> function
      | Ok k -> n + k
      | Error (exn, bt) -> Printexc.raise_with_backtrace exn bt)
    0
    (mine :: List.map Domain.join spawned)

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
