(** The resident verification service.

    A server holds one frozen {!Irdl_ir.Context} (the dialect corpus is
    loaded once) and answers framed requests — parse, verify, re-print,
    emit bytecode — over a byte stream: stdin/stdout ({!serve_fd}, the
    [--serve] mode) or a Unix-domain socket ({!serve_unix}, [--listen]).
    One serve loop runs both transports: on a byte stream, one loop on
    the calling domain over that one connection; on a socket, one loop
    per domain, each answering the connections it accepted. Each request
    is answered as soon as its frame is decoded, its response written
    before the next frame is read, so a connection's responses come in
    arrival order. Module requests run the same chunk driver as a
    one-shot run ({!Irdl_bytecode.Frontend.run}).

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
      intake; every request already read is still processed and answered
      before the serve loop returns. *)

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

val kind_to_string : kind -> string
val kind_of_string : string -> kind option
val status_to_string : status -> string
val status_of_string : string -> status option

val status_exit_code : status -> int
(** The one-shot-compatible exit code a client should exit with: 0 for ok,
    1 for parse-stage failures (parse error, invalid request, blown
    budget), 2 for verify errors, 4 for internal errors. *)

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
}

type config = {
  limits : Limits.t;
      (** server-wide ceiling; met with each request's own limits, so a
          request can tighten but never loosen it *)
  domains : int;
      (** the number of serve loops for {!serve_unix}; 0 = recommended
          count. {!serve_fd} runs one loop. *)
  generic : bool;  (** print in generic form, as [irdl-opt --generic] *)
}

val default_config : config
(** Unlimited budgets, recommended domain count, pretty printing. *)

val parse_request :
  header:(string * string) list -> payload:string -> (request, response) result
(** Decode a request from its frame header ([id], [kind], [file],
    [max-ops], [max-depth], [max-bytes], [deadline-ms]; unknown keys
    ignored). [Error] is the ready-to-send [invalid_request] response. The
    deadline starts {e now}, when the frame is decoded. *)

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
    requests already read are processed and answered first. This is the
    serve loop of {!serve_unix} over one connection and no listener, on
    the calling domain; it closes neither descriptor. If [out_fd] hangs
    up, serving stops. Freezes [ctx]. Returns the number of requests
    answered. *)

val serve_unix :
  ?config:config -> Irdl_ir.Context.t -> path:string -> unit -> int
(** Listen on a Unix-domain socket at [path] (an existing socket file is
    replaced), serving any number of concurrent connections until
    shutdown; then stop accepting, close every connection (each request
    already read has been answered) and unlink [path]. Returns the number
    of requests answered.

    [config.domains] serve loops, run as one {!Irdl_support.Domain_pool}
    batch (the calling domain and [domains - 1] domains spawned for it),
    share the non-blocking listening socket. Each loop owns
    the connections it accepted and answers their requests inline, one
    frame at a time: a long request holds up only its own loop, and the
    connections that loop already accepted. An [accept]
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
