(** The resident verification service.

    A server holds one frozen {!Irdl_ir.Context} (the dialect corpus is
    loaded once) and answers framed requests — parse, verify, re-print,
    emit bytecode — over a byte stream: stdin/stdout ({!serve_fd}, the
    [--serve] mode) or a Unix-domain socket ({!serve_unix}, [--listen]).
    On a byte stream, a burst of pipelined requests fans out through the
    work-stealing {!Domain_pool}; on a socket, each domain runs its own
    serve loop and answers the connections it accepted inline. Either way
    a connection's responses are written in arrival order.

    Robustness contract, enforced per request:
    - {b Budgets}: the server's configured {!Limits.t} is {!Limits.meet}ed
      with the request's own limits; blown budgets produce a
      [resource_exhausted]/[deadline_exceeded] response, never a crash.
    - {b Isolation}: {!handle} never raises. Any exception — including
      injected {!Failpoints} faults — poisons only its own request, which
      is answered [internal_error].
    - {b Determinism}: the diagnostics text of a response is byte-identical
      to what a one-shot [irdl-opt] run over the same input would write to
      stderr (same renderer, same source snippets), and responses preserve
      request order.
    - {b Graceful shutdown}: SIGTERM/SIGINT (or a [shutdown] request) stop
      intake; every request already accepted is still processed and
      answered before the serve loop returns.
    - {b Load shedding}: with a bounded queue ([max_queue > 0]), requests
      beyond the window in one read burst are answered [retry_later] with
      a [retry-after-ms] hint instead of growing the heap. *)

open Irdl_support

type kind =
  | Parse  (** syntax (and budget) check only *)
  | Verify  (** parse + verify *)
  | Print  (** parse + verify + re-print (textual) *)
  | Emit_bytecode  (** parse + verify + serialize to bytecode *)
  | Ping
  | Stats  (** registered dialects, like one-shot [irdl-opt] with no input *)
  | Shutdown  (** answered [ok], then the serve loop drains and exits *)

type status =
  | Ok_
  | Parse_error
  | Verify_error
  | Resource_exhausted
  | Deadline_exceeded
  | Internal_error
  | Invalid_request
  | Retry_later

val kind_to_string : kind -> string
val kind_of_string : string -> kind option
val status_to_string : status -> string
val status_of_string : string -> status option

val status_exit_code : status -> int
(** The one-shot-compatible exit code a client should exit with: 0 for ok,
    1 for parse-stage failures (parse error, invalid request, blown
    budget), 2 for verify errors, 4 for internal errors, 5 for
    [retry_later]. *)

type request = {
  rq_id : string;
  rq_kind : kind;
  rq_file : string;  (** diagnostics file name; same as one-shot's path *)
  rq_limits : Limits.t;  (** request-side budget, deadline already absolute *)
  rq_payload : string;  (** classified by magic sniffing, as every input *)
}

type response = {
  rs_id : string;
  rs_status : status;
  rs_errors : int;
  rs_diags : string;  (** pre-rendered; byte-identical to one-shot stderr *)
  rs_output : string;
  rs_retry_after_ms : int option;
}

type config = {
  limits : Limits.t;
      (** server-wide ceiling; met with each request's own limits, so a
          request can tighten but never loosen it *)
  max_queue : int;
      (** > 0 bounds accepted-per-burst requests (excess is shed with
          [retry_later]); 0 accepts everything, dispatching in internal
          batches *)
  domains : int;
      (** the number of serve loops for {!serve_unix}, the {!Domain_pool}
          width for {!serve_fd}; 0 = recommended count *)
  generic : bool;  (** print in generic form, as [irdl-opt --generic] *)
  retry_after_ms : int;  (** the hint sent with shed responses *)
}

val default_config : config
(** Unlimited budgets, unbounded queue, recommended domain count, pretty
    printing, 10 ms retry hint. *)

val parse_request :
  header:(string * string) list -> payload:string -> (request, response) result
(** Decode a request from its frame header ([id], [kind], [file],
    [max-ops], [max-depth], [max-bytes], [deadline-ms]; unknown keys
    ignored). [Error] is the ready-to-send [invalid_request] response. The
    deadline starts {e now} — time spent queued counts against it. *)

val request_header : request -> deadline_ms:int -> (string * string) list
(** The wire header for a request (client side). [deadline_ms] is sent
    relative; 0 means none. *)

val handle : Irdl_ir.Context.t -> config -> request -> response
(** Process one request. Never raises (except asynchronous
    [Out_of_memory]): internal failures and injected faults become
    [internal_error] responses. Safe to call from any domain of a pool
    provided [ctx] is frozen; call {!Diag.Sources.preload} with the
    loader domain's snapshot first (once per domain) so diagnostics render
    dialect-file snippets identically to a one-shot run. *)

val response_frame : response -> string
(** The encoded wire frame of a response. *)

val response_of_wire :
  header:(string * string) list ->
  diags:string ->
  output:string ->
  (response, string) result
(** Client-side decode of {!response_frame}'s sections. *)

(** {1 Shutdown coordination} *)

val request_shutdown : unit -> unit
(** Ask every serve loop in the process to drain and exit; what the
    SIGTERM/SIGINT handlers call. *)

val shutdown_requested : unit -> bool

val reset_shutdown : unit -> unit
(** Clear the flag (tests running several serve loops in one process). *)

val install_signal_handlers : unit -> unit
(** Route SIGTERM and SIGINT to {!request_shutdown}. *)

(** {1 Serve loops} *)

val serve_fd :
  ?config:config ->
  Irdl_ir.Context.t ->
  in_fd:Unix.file_descr ->
  out_fd:Unix.file_descr ->
  unit ->
  int
(** Serve framed requests from [in_fd], writing responses to [out_fd], in
    arrival order, until end of input, a protocol error (answered with a
    final [invalid_request] response), or shutdown — in every case the
    requests already accepted are processed and answered first. Freezes
    [ctx]. Returns the number of requests answered. *)

val serve_unix :
  ?config:config -> Irdl_ir.Context.t -> path:string -> unit -> int
(** Listen on a Unix-domain socket at [path] (an existing socket file is
    replaced), serving any number of concurrent connections until
    shutdown; then stop accepting, drain, close every connection and
    unlink [path]. Returns the number of requests answered.

    [config.domains] serve loops (the calling domain and [domains - 1]
    spawned ones) share the non-blocking listening socket. Each loop owns
    the connections it accepted and answers their requests inline, one
    connection burst at a time: a long request holds up only its own
    loop, and the connections that loop already accepted. An [accept]
    that runs out of descriptors is retried after one [select] round. If a
    loop fails, the others are shut down and drain, and its exception is
    re-raised once all have joined. *)

(** {1 Client} *)

val roundtrip :
  path:string ->
  kind:kind ->
  ?id:string ->
  ?file:string ->
  ?deadline_ms:int ->
  ?limits:Limits.t ->
  string ->
  (response, string) result
(** Connect to the socket at [path], send one request carrying the given
    payload, and read the response. [Error] describes a transport or
    protocol failure. *)
