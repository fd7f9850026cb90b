(** The unified text/bytecode frontend.

    Every input becomes a {!Source.payload} classified by magic sniffing;
    every output flows through a {!Sink}; {!Stream} erases the format
    distinction behind the pull-based session API of
    [Irdl_ir.Parser.Stream]. {!run} composes the three into the chunk
    driver that every [irdl-opt] chunk task and the server call.
    {!load_dialects} reads dialects from IRDL text or from a dialect pack,
    whose documents are bytecode modules like any other. *)

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
    [Printer.add_op], ops joined with a newline, byte-identical to
    [Printer.ops_to_string]) or the incremental bytecode emitter. Ops may
    be pushed as they stream; push never raises (the first emit or write
    error is reported by {!Sink.close_output} and {!Sink.close}).

    A text sink cuts its output into {!Sink.page_size} pages and holds at
    most {!Sink.spill_after} bytes of them. Past that it moves them into a
    temporary file, unlinked as soon as it is open, and writes every later
    page straight into it. If no such file can be made (no writable
    temporary directory, no file descriptor left) the pages stay in
    memory; the output is the same. A failed write to the file is the
    sink's error. A sink that spilled holds a file descriptor until it is
    closed ({!run} closes its sink on every path). A bytecode sink holds
    its one blob. *)
module Sink : sig
  type t

  val text : ?generic:bool -> Context.t -> t
  val bytecode : unit -> t
  val push : t -> Graph.op -> unit

  val page_size : int
  (** A text sink turns its working buffer into an immutable page each time
      it reaches this many bytes after a push (64 KiB). *)

  val spill_after : int
  (** The bytes of pages a text sink holds in memory before it moves them
      into its file (four pages, 256 KiB). *)

  type output
  (** A closed sink's output: pages in memory, or the file plus the tail
      left in the buffer. An output that holds a file holds its file
      descriptor until it is read once, by {!write_output} or {!contents}. *)

  val close_output : t -> (output, Diag.t) result
  (** The output, handed over. A text sink closes its file on an error.
      @raise Invalid_argument if a text sink's file was already handed over
      or discarded. *)

  val write_output : out_channel -> output -> unit
  (** Write the output to the channel, in page-size blocks, and release its
      file. *)

  val contents : output -> string
  (** The output as one string; releases its file. *)

  val close : t -> (string, Diag.t) result
  (** [close_output], then [contents]. *)
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
  output : Sink.output option;
      (** the sink's output ({!Sink.close_output}), when a sink was given
          and no error was added *)
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
    [sink] and released as it arrives, so the chunk holds the live values,
    the largest op and what the sink holds ({!Sink}: at most
    {!Sink.spill_after} bytes of text). With [pipeline], the ops are kept;
    after a clean verify the callback runs over them, the diagnostics it
    returns are emitted and count as a verify failure, and the ops are
    then pushed to [sink]. Output is produced only when no error was added
    to [engine], so a chunk prints all of its output or none of it; a sink
    error is emitted and counts as a verify failure. When no output is
    handed over, [run] discards the sink, also when an exception escapes,
    so a failing chunk leaves no file open. An exception raised
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
(** Load and register dialect definitions from IRDL text or a dialect
    pack (read transiently, and lifted with {!Irdl_core.Dialect_ir.lift}),
    through [Irdl.load_with]: with [engine], errors are emitted, surviving
    definitions are registered, and the result is [Ok] with the dialects
    that loaded; without it, the first error. *)
