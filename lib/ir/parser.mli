(** Parser for the textual IR syntax produced by {!Printer}: the generic
    form and, for operations registered with a declarative format, the
    custom pretty form. Forward references to values and blocks are allowed
    within a region.

    SSA names are scoped as in MLIR: a name is defined once in the scopes
    it is visible in ("redefinition of SSA value"), a definition made
    inside a region is dropped when the region closes, and a block label
    is visible only in its own region. An op's attribute names are
    unique ("duplicate key").

    The parser has one recovery mode: every lexing and parsing error, and
    every undefined value, is emitted to an engine and parsing resumes at
    the next operation boundary. An entry point called without [engine]
    runs the same code on a private engine and returns its first error as
    [Error] ({!Diag.Engine.fail_fast}). *)

open Irdl_support

val builtin_ty_of_ident : string -> Attr.ty option
(** Classify a bare identifier as a builtin type ([f32], [si8], [index],
    ...); shared with the IRDL resolver. *)

val int_ty_of_ident : string -> Attr.ty option

val name_table_cap : int
(** The most entries the calling domain's name table holds: names and op
    signatures the parser has seen. On reaching it the table is emptied. *)

val name_table_entries : unit -> int
(** Entries in the calling domain's name table now. *)

val signature_memo_stats : unit -> int * int
(** Op-signature memo hits and misses in the calling domain so far. *)

val parse_ops :
  ?file:string ->
  ?engine:Diag.Engine.t ->
  ?limits:Limits.t ->
  ?window:Sbuf.window ->
  Context.t ->
  string ->
  (Graph.op list, Diag.t) result
(** Parse a sequence of top-level operations. With [engine] the result is
    always [Ok] with the operations that parsed; without it, the first
    error is returned as [Error].

    [limits] (default {!Limits.unlimited}) caps payload size, op count,
    region depth and wall time. A blown budget aborts the whole parse: the
    budget diagnostic (code [resource_exhausted]/[deadline_exceeded]) is
    emitted, and the result is [Ok []] with [engine].

    [window] (default: the whole source) restricts the parse to one chunk
    of [src], e.g. a [--split-input-file] chunk: locations carry the
    chunk's real line numbers and file offsets, and the payload limit
    counts the chunk's bytes only. *)

(** Pull-based parse sessions: one fully-parsed top-level operation at a
    time (regions materialized per-op), so a driver can parse → verify →
    print → {!release} each op without the whole module ever being
    resident. {!parse_ops} drains a session, so the sequence of yielded ops
    and emitted diagnostics is identical. *)
module Stream : sig
  type session
  (** An in-progress streaming parse over one source buffer. *)

  val create :
    ?file:string ->
    ?engine:Diag.Engine.t ->
    ?limits:Limits.t ->
    ?window:Sbuf.window ->
    Context.t ->
    string ->
    session
  (** Open a session. Errors are emitted to [engine]; without it the
      first error ends the session. [window] selects a chunk of [src] as
      in {!parse_ops}.
      [limits] caps the session's resources; a blown budget never raises
      out of [create] or {!next} — it ends the session with a sticky
      [Error] whose diagnostic carries the budget code. *)

  val next : session -> (Graph.op option, Diag.t) result
  (** The next top-level operation, [Ok None] at end of input, or the
      error that ended the session (returned again on every subsequent
      call): a budget violation, or — without an engine — the first error
      emitted, after which no op is yielded. An op is yielded only once
      every top-level forward reference pending at its parse has been
      resolved, so its operands are exactly the values of the whole
      module's parse; modules with no top-level forward references are
      parsed strictly one op ahead. *)

  val release : Graph.op -> unit
  (** Alias of {!Graph.release}: call when done with a yielded op to let
      the GC reclaim its subtree while later ops may still name its
      results. *)
end

val parse_op_string :
  ?file:string -> Context.t -> string -> (Graph.op, Diag.t) result
(** Parse exactly one operation. Like every entry point below, it returns
    its first error. *)

val parse_type_string :
  ?file:string -> Context.t -> string -> (Attr.ty, Diag.t) result
(** Parse a standalone type, e.g. ["!cmath.complex<f32>"]. *)

val parse_attr_string :
  ?file:string -> Context.t -> string -> (Attr.t, Diag.t) result
(** Parse a standalone attribute. *)
