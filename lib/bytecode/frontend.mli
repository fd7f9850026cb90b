(** The unified text/bytecode frontend.

    Every input becomes a {!Source.payload} classified by magic sniffing;
    every output flows through a {!Sink}; {!Stream} erases the format
    distinction behind the pull-based session API of
    [Irdl_ir.Parser.Stream]. Drivers (irdl-opt) compose these uniformly
    across [--split-input-file], [--batch], [--jobs] and streaming. *)

open Irdl_support
module Graph = Irdl_ir.Graph
module Context = Irdl_ir.Context

(** Classified inputs. *)
module Source : sig
  type payload =
    | Text of string * Sbuf.window
        (** A window of a text source: the whole of it, or one
            [--split-input-file] chunk sharing the one source string. *)
    | Binary of string

  val classify : string -> payload
  (** [Binary] iff the buffer starts with the bytecode magic; otherwise
      the whole buffer as one [Text] window. *)

  val contents : payload -> string
  (** The payload's bytes: a text window's own text (a copy, unless the
      window is the whole source). *)

  val is_binary : payload -> bool

  val of_channel : in_channel -> payload
  (** Classify a channel that cannot seek (stdin): the magic-sized prefix
      is peeked and pushed back by prepending; [seek_in] is never used. *)

  val read : string -> payload
  (** Read and classify a file path, or stdin for ["-"] (switched to
      binary mode first).
      @raise Sys_error as [open_in] does. *)

  val chunks : split:bool -> payload -> payload list
  (** The independent units of work in a payload: [// -----] chunks for
      text (windows of the same source string, see
      {!Diag_harness.split_input}), document boundaries for bytecode.
      Without [split], the whole payload as one chunk. *)
end

(** Output accumulation: the textual printer (one printer session that
    renders each op straight into the sink's working buffer with
    [Printer.add_op], ops joined with a newline, the output kept as
    {!Sink.page_size} pages — byte-identical to [Printer.ops_to_string])
    or the incremental bytecode emitter. Ops may be pushed as they stream;
    push never raises (the first emit error is reported by {!Sink.close}
    and {!Sink.close_pages}). *)
module Sink : sig
  type t

  val text : ?generic:bool -> Context.t -> t
  val bytecode : unit -> t
  val is_binary : t -> bool
  val push : t -> Graph.op -> unit

  val page_size : int
  (** A text sink turns its working buffer into an immutable page each time
      it reaches this many bytes after a push (64 KiB). *)

  val close_pages : t -> (string list, Diag.t) result
  (** The output as pages, in order: their concatenation is the output. A
      text sink that was pushed no op gives no page; a bytecode sink gives
      its one blob. *)

  val close : t -> (string, Diag.t) result
  (** The output as one string (the pages joined). *)
end

(** Format-erased pull-based parsing: [Ir.Parser.Stream] for text,
    [Bytecode.Stream] for bytecode, one session API. *)
module Stream : sig
  type t

  val create :
    ?file:string ->
    ?engine:Diag.Engine.t ->
    ?limits:Limits.t ->
    Context.t ->
    Source.payload ->
    t

  val next : t -> (Graph.op option, Diag.t) result
  val release : Graph.op -> unit
end

val parse_module :
  ?file:string ->
  ?engine:Diag.Engine.t ->
  ?limits:Limits.t ->
  Context.t ->
  Source.payload ->
  (Graph.op list, Diag.t) result
(** Materialize a whole payload: [Parser.parse_ops] for text,
    [Bytecode.read_module] for bytecode; same fail-fast/fail-soft
    [?engine] discipline as both. [limits] caps payload size, op count,
    region depth and wall time (see {!Limits}); budget violations abort
    the session even in fail-soft mode. *)

val load_dialects :
  ?native:Irdl_core.Native.t ->
  ?compile:bool ->
  ?file:string ->
  ?engine:Diag.Engine.t ->
  Context.t ->
  Source.payload ->
  (Irdl_core.Resolve.dialect list, Diag.t) result
(** Load and register dialect definitions from IRDL text ([Irdl.load]) or
    a bytecode dialect pack ([Bytecode.read_dialects] + registration).
    With [engine] the load is fail-soft: errors are emitted, surviving
    definitions are registered, and the result is [Ok] with the dialects
    that loaded. *)
