(** Resource budgets for untrusted input.

    A {!t} is an immutable description of what a parse/verify session may
    consume: payload bytes, total operations, region-nesting depth, and an
    absolute monotonic deadline. A {!budget} is the mutable per-session
    counter state derived from it; the parsers call {!tick_op} /
    {!enter_region} / {!leave_region} at op and region boundaries, and a
    blown budget raises {!Diag.Fatal_exn} with a located diagnostic whose
    [code] is {!resource_exhausted} or {!deadline_exceeded} — fatal, not
    recoverable, because fail-soft recovery resuming after "too many ops"
    would keep consuming the very resource that ran out.

    Everywhere, [0] means "unlimited" for the [int] fields and "no
    deadline" for [deadline_ns]. {!unlimited} is the default threaded
    through every entry point, so existing callers pay one integer compare
    per check. *)

type t = {
  max_payload_bytes : int;  (** input size cap; 0 = unlimited *)
  max_ops : int;  (** total parsed/decoded operations; 0 = unlimited *)
  max_depth : int;  (** region-nesting depth; 0 = unlimited *)
  deadline_ns : int64;
      (** absolute {!Monotonic.now_ns} deadline; 0 = none *)
}

val unlimited : t

val create :
  ?max_payload_bytes:int ->
  ?max_ops:int ->
  ?max_depth:int ->
  ?deadline_ns:int64 ->
  unit ->
  t
(** Omitted fields are unlimited. Negative values are treated as 0. *)

val with_deadline_ms : t -> int -> t
(** [with_deadline_ms t ms] sets the deadline to [ms] milliseconds from
    now ({!Monotonic.now_ns}); [ms <= 0] clears it. *)

val meet : t -> t -> t
(** Pointwise strictest combination: for each field the smaller nonzero
    value wins (a server's configured ceiling meets a request's own
    limits — a request can tighten but never loosen). *)

val is_unlimited : t -> bool

val resource_exhausted : string
(** Diagnostic code ["resource_exhausted"] (ops / depth / payload caps). *)

val deadline_exceeded : string
(** Diagnostic code ["deadline_exceeded"]. *)

val is_budget_code : string option -> bool
(** Whether a diagnostic's [code] is one of the two budget codes. *)

type budget
(** Mutable per-session counter state. Not thread-safe: one budget per
    parse/decode session, confined to the domain running it. *)

val budget : t -> budget
(** Fresh counters for one session of [t]. *)

val limits_of : budget -> t

val check_payload : budget -> loc:Loc.t -> int -> unit
(** Check an input's byte size against [max_payload_bytes] before any
    parsing; raises {!Diag.Fatal_exn} ([resource_exhausted]) at [loc], the
    input's first byte, on excess. For a [--split-input-file] chunk the
    size is the chunk's own and [loc] its first line. *)

val tick_op : budget -> loc:Loc.t -> unit
(** Account one operation at [loc]: raises {!Diag.Fatal_exn} with
    [resource_exhausted] past [max_ops], or [deadline_exceeded] once the
    deadline has passed. The deadline is polled here (op granularity) so a
    slow parse cannot overshoot by more than one op. *)

val enter_region : budget -> loc:Loc.t -> unit
(** Account one level of region nesting; raises past [max_depth]. Pair
    with {!leave_region} (use [Fun.protect] so error paths unwind). *)

val leave_region : budget -> unit

val ops_used : budget -> int
(** Operations accounted so far, for stats/tests. *)
