(** Versioned binary serialization ("IRDL bytecode") for IR modules. A
    dialect pack is ordinary modules, a document of [irdl.*] ops per
    dialect ({!Irdl_core.Dialect_ir}), which [irdl-opt] prints as IR.

    A bytecode buffer is a sequence of self-delimiting {e documents}, each
    [magic version kind payload_len payload] with [kind] always 0;
    documents concatenate freely (the binary analog of [// -----] chunks).
    Module payloads carry deduplicated string and type/attribute tables
    that intern directly on load, a table of the distinct op signatures,
    each op naming its row, and a byte-length index of the top-level ops,
    which bounds each op's decode.

    The reader never crashes on malformed input: every read is
    bounds-checked and surfaces as a located diagnostic, emitted to the
    [?engine]. Reading resumes at the next document. Called without an
    engine, a reader runs the same code on a private engine and returns
    its first error as [Error] ({!Diag.Engine.fail_fast}). See DESIGN.md
    "Bytecode format" for the layout and compatibility policy. *)

open Irdl_support
module Graph = Irdl_ir.Graph
module Context = Irdl_ir.Context

val magic : string
(** The 8-byte document magic; the lead byte is invalid UTF-8, so bytecode
    never collides with textual IR. *)

val version : int
(** The format version this library writes (2); the reader accepts
    [1..version]. *)

val sniff : string -> bool
(** Does the buffer start with the bytecode magic? *)

val split_documents : ?file:string -> string -> string list
(** The buffer split at document boundaries (the bytecode analog of
    splitting text on [// -----]), read from the headers without decoding
    payloads. A buffer holding zero or one document is returned whole; an
    undecodable tail is one final opaque slice, so consumers still visit,
    and report, it. *)

(** Serializing: an incremental module writer (ops pushed one at a time —
    the streaming emit path) plus whole-value convenience entry points. *)
module Write : sig
  type t

  val create : unit -> t

  val push_op : t -> Graph.op -> unit
  (** Append one top-level op.
      @raise Diag.Error_exn on unserializable structure (a successor
      outside the enclosing region). *)

  val close : t -> (string, Diag.t) result
  (** The finished single-document buffer. [Error] when a value used by
      the emitted ops was never defined by them. *)

  val module_to_string : Graph.op list -> (string, Diag.t) result

  val dialects_to_string :
    Irdl_core.Resolve.dialect list -> (string, Diag.t) result
  (** A dialect pack: each dialect lowered ({!Irdl_core.Dialect_ir.lower})
      and written as one module document. [Frontend.load_dialects] reads
      it back. *)
end

val read_module :
  ?file:string ->
  ?engine:Diag.Engine.t ->
  ?limits:Irdl_support.Limits.t ->
  ?transient:bool ->
  Context.t ->
  string ->
  (Graph.op list, Diag.t) result
(** Materialize every module document of the buffer. Errors are emitted
    to [engine] and decoding resumes at the next document boundary; the
    result is [Ok] with the ops that decoded, or [Error] with a budget
    violation. Without [engine], the first error is returned as [Error].
    Drains {!Stream} internally, so diagnostics are identical to the
    streaming path. [limits] caps payload size, decoded ops, region depth
    and wall time across the whole buffer; a blown budget ends the
    session. A [transient] read interns no attribute and gives ops no
    signature entry: its ops are only read back (a dialect pack), never
    verified, printed or emitted. *)

(** Pull-based reading, API-compatible with {!Irdl_ir.Parser.Stream}: one
    fully-materialized top-level op at a time, in document order. *)
module Stream : sig
  type session

  val create :
    ?file:string ->
    ?engine:Diag.Engine.t ->
    ?limits:Irdl_support.Limits.t ->
    ?transient:bool ->
    Context.t ->
    string ->
    session

  val next : session -> (Graph.op option, Diag.t) result
  (** The next top-level op, [Ok None] at end of input. As with the
      textual stream, an op is yielded only once every forward value
      reference pending at its decode has resolved. Errors are emitted and
      the session resumes at the next document, except budget violations
      (diagnostic code [resource_exhausted]/[deadline_exceeded]), which
      end it with a sticky [Error]. A session opened without an engine
      yields no op once an error was emitted: it returns the first one,
      sticky. *)

  val release : Graph.op -> unit
  (** Alias of {!Graph.release}. *)
end
