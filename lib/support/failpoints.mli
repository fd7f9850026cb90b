(** Fault-injection points.

    A failpoint is a named seam in the code (the parse entry, the verify
    entry, the bytecode decoder, the server's pool task) that can be armed
    to raise {!Injected} deterministically, so robustness tests can drive
    real exceptions through real recovery paths instead of mocking them.

    Arming is process-global and cross-domain (the registry is read and
    counted atomically), and there is one way to do it: {!configure},
    which replaces the configuration at any time ([irdl-opt]'s
    [--failpoints] flag, tests). Linking the library arms nothing.

    Spec syntax: a comma-separated list of [seam] or [seam:K] entries.
    [seam] fires on every hit; [seam:K] fires on every Kth hit within a
    document (the Kth, 2Kth, ... — deterministic, no randomness, so soak
    tests are exactly reproducible). A document is one {!in_document}
    call: one chunk driven by [Frontend.run], in [irdl-opt] and in the
    server alike. Its hits are counted on its own, so which ops a fault
    hits does not depend on how many domains run the other documents.
    Hits outside any document (the server's [pool.task] seam, passed once
    per request) are counted process-wide. An empty spec disarms
    everything.

    When nothing is armed, {!hit} is one atomic load — cheap enough to
    leave in production code paths. *)

exception Injected of string
(** Raised by {!hit} at an armed seam; the payload is the seam name. *)

val seams : string list
(** The seams the code passes; {!configure} accepts any name. *)

val configure : string -> (unit, string) result
(** Replace the armed set from a spec string. [Error] describes the first
    malformed entry; the previous configuration is kept on error. *)

val clear : unit -> unit
(** Disarm every seam and reset counters. *)

val active : unit -> bool
(** Whether any seam is armed. *)

val in_document : (unit -> 'a) -> 'a
(** [in_document f] runs [f] as one document: the seams it hits count
    from zero, on the calling domain only, and the enclosing count (a
    document's, or the process-wide one) resumes afterwards. *)

val hit : string -> unit
(** Pass through the named seam: raises {!Injected} when the seam is armed
    and its counter says this hit fires. No-op (one atomic load) when
    nothing is armed. *)

val injected_count : string -> int
(** How many times the named seam actually raised so far (0 when not
    armed); observability for soak tests. *)

val armed : unit -> (string * int * int) list
(** The armed seams as [(name, every, injected)] triples. *)
