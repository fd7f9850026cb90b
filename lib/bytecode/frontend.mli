(** The unified text/bytecode frontend.

    Every input becomes a {!Source.payload} classified by magic sniffing;
    every output flows through a {!Sink}; {!Stream} erases the format
    distinction behind the pull-based session API of
    [Irdl_ir.Parser.Stream]. {!run} composes the three into the chunk
    driver that every [irdl-opt] chunk task and the server call. *)

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

(** What {!run} did with one chunk. *)
type outcome = {
  parse_failed : bool;  (** the engine's error count rose while draining *)
  verify_failed : bool;
      (** verifier, pipeline or sink diagnostics were emitted *)
  output : string list option;
      (** the sink's pages ({!Sink.close_pages}), when a sink was given and
          no error was added *)
}

val run :
  ?file:string ->
  engine:Diag.Engine.t ->
  ?limits:Limits.t ->
  verify:bool ->
  ?sink:Sink.t ->
  ?pipeline:(Graph.op list -> Diag.t list) ->
  Context.t ->
  Source.payload ->
  outcome
(** The one chunk driver: drain a {!Stream} over the payload, verifying
    each top-level op as it arrives ([verify]), then emit the held verify
    diagnostics ([Verifier.merge_diags] order) after the parse diagnostics.
    A parse failure drops them. Without [pipeline], each op is pushed to
    [sink] and released as it arrives, so peak memory is bounded by the
    largest op. With [pipeline], the ops are kept; after a clean verify
    the callback runs over them, the diagnostics it returns are emitted
    and count as a verify failure, and the ops are then pushed to [sink].
    Output is produced only when no error was added to [engine]; a sink
    error is emitted and counts as a verify failure. An exception raised
    by verifying an op or by [pipeline] (an injected {!Failpoints} fault,
    a bug) is not re-raised: {!Diag.protect_any} turns it into a
    diagnostic (code [injected_fault] for a failpoint), which counts as a
    verify failure. Each call is one {!Failpoints.in_document}: a
    [seam:K] failpoint counts the hits of this chunk alone. *)

val load_dialects :
  ?native:Irdl_core.Native.t ->
  ?file:string ->
  ?engine:Diag.Engine.t ->
  Context.t ->
  Source.payload ->
  (Irdl_core.Resolve.dialect list, Diag.t) result
(** Load and register dialect definitions from IRDL text or a bytecode
    dialect pack, through [Irdl.load_with]: with [engine], errors are
    emitted, surviving definitions are registered, and the result is [Ok]
    with the dialects that loaded; without it, the first error. *)
