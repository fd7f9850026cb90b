(** Structured diagnostics.

    Every user-facing failure (IRDL frontend, IR parser, generated
    verifiers) is reported as a {!t}; internal invariant violations use
    [invalid_arg]/[assert] instead. {!Engine} collects every diagnostic of a
    fail-soft run; {!Sources} keeps lexed buffers so diagnostics render with
    caret/underline source snippets. *)

type severity = Error | Warning | Note

type t = {
  severity : severity;
  loc : Loc.t;
  message : string;
  notes : (Loc.t * string) list;
  code : string option;
      (** Machine-readable classification ([resource_exhausted],
          [deadline_exceeded], [injected_fault], ...). [None] for ordinary
          diagnostics; serialized to JSON only when present so existing
          outputs stay byte-identical. *)
}

exception Error_exn of t
(** Raised by {!raise_error}; caught at API boundaries by {!protect}. *)

exception Fatal_exn of t
(** A session-aborting diagnostic (budget violation, deadline). Deliberately
    NOT caught by {!protect}: fail-soft recovery catches {!Error_exn} at op
    boundaries and resumes parsing, which must not happen once a resource
    budget is blown. {!protect_any} — the outermost guard — converts it to
    [Error] like any other failure. *)

val make :
  ?severity:severity -> ?loc:Loc.t -> ?notes:(Loc.t * string) list ->
  ?code:string -> string -> t

val error :
  ?loc:Loc.t -> ?notes:(Loc.t * string) list -> ?code:string ->
  ('a, Format.formatter, unit, t) format4 -> 'a
(** [error fmt ...] builds an error diagnostic from a format string. *)

val warning :
  ?loc:Loc.t -> ?notes:(Loc.t * string) list ->
  ('a, Format.formatter, unit, t) format4 -> 'a

val errorf :
  ?loc:Loc.t -> ?notes:(Loc.t * string) list -> ?code:string ->
  ('a, Format.formatter, unit, ('b, t) result) format4 -> 'a
(** Like {!error} but already wrapped in [Result.Error]. *)

val raise_error :
  ?loc:Loc.t -> ?notes:(Loc.t * string) list ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise the diagnostic as {!Error_exn}. *)

val raise_fatal :
  ?loc:Loc.t -> ?notes:(Loc.t * string) list -> ?code:string ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise the diagnostic as {!Fatal_exn}. *)

val pp_severity : Format.formatter -> severity -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val protect : (unit -> 'a) -> ('a, t) result
(** Run a thunk, converting a raised {!Error_exn} into [Error]. *)

val protect_any : ?loc:Loc.t -> (unit -> 'a) -> ('a, t) result
(** Like {!protect}, but additionally converts any other exception (stray
    [Failure], [Invalid_argument], [Not_found], assertion failure, stack
    overflow) into an "internal error" diagnostic at [loc]; {!Fatal_exn}
    carries its own diagnostic through, and {!Failpoints.Injected} becomes
    a diagnostic with code ["injected_fault"]. Out-of-memory is re-raised.
    Public entry points use this so no input can crash a caller. *)

val get_ok : ('a, t) result -> 'a
(** Unwrap, re-raising {!Error_exn} on [Error]. *)

(** Registry of source-buffer contents, keyed by file name. {!Sbuf.create}
    registers every source it lexes; {!pp_snippet} reads it back at render
    time. Registering the very string already registered keeps its entry,
    so the chunks of one split file share one registration and one line
    index. A different string under the same name overwrites, so rendering
    is best-effort for scratch names like ["<string>"].

    The registry is domain-local: each domain sees the buffers it
    registered itself, then those it inherited from a {!Sources.snapshot}
    of the spawning domain via {!Sources.preload}. *)
module Sources : sig
  val register : file:string -> string -> unit
  val lookup : string -> string option

  val drop : string -> unit
  (** Remove one file's buffer from the calling domain's own registrations
      (no-op when absent; inherited ones stay). A server calls this once
      a request's diagnostics have been rendered, so a long-lived process
      does not retain every request's buffer; diagnostics rendered later
      against the dropped file simply lose their snippet. *)

  val clear : unit -> unit

  type snapshot
  (** An immutable copy of one domain's registrations. *)

  val snapshot : unit -> snapshot
  (** Every registration visible in the calling domain, for {!preload} in
      another. *)

  val preload : snapshot -> unit
  (** Make a snapshot's entries visible in the calling domain, behind its
      own registrations (which win on a name clash), replacing any
      snapshot preloaded before. Constant time: the entries, line indexes
      included, are shared, not copied. *)
end

val pp_snippet : Format.formatter -> Loc.t -> unit
(** Render the source line under a location with a [^~~~] caret span, when
    the file's text is registered in {!Sources}; renders nothing otherwise.
    The line is found by its number in a line-start index built once per
    registered source, on its first rendered diagnostic. *)

val pp_rendered : Format.formatter -> t -> unit
(** Like {!pp}, with a source snippet under the header and under every
    note whose location is known. *)

val to_json : t -> string
(** One diagnostic as a JSON object (severity, file/line/col, message,
    notes). *)

type diag = t
(** Alias so {!Engine} can refer to diagnostics past its own [t]. *)

(** A diagnostic engine: collects every diagnostic of a run instead of
    stopping at the first, with severity counts, an error cap, and
    pluggable handlers. The recorded list doubles as the recording sink
    for tests; {!Engine.to_json} is the machine-readable sink. *)
module Engine : sig
  type handler = diag -> unit

  type t = {
    mutable diags_rev : diag list;
    mutable n_errors : int;
    mutable n_warnings : int;
    mutable n_notes : int;
    mutable n_suppressed : int;
    max_errors : int;
    mutable handlers : handler list;
  }

  val create : ?max_errors:int -> unit -> t
  (** [max_errors] caps recorded errors; 0 (the default) is unlimited. *)

  val add_handler : t -> handler -> unit
  (** Handlers run on every recorded diagnostic, in registration order. *)

  val emit : t -> diag -> unit
  (** Record a diagnostic and forward it to the handlers. Errors past the
      cap are counted as suppressed instead. *)

  val record : t -> diag -> unit
  (** Like {!emit} but without notifying the handlers: counts and records
      only, for a replay whose diagnostics were rendered elsewhere. *)

  val add_suppressed : t -> int -> unit
  (** Count [n] more suppressed errors: those another engine suppressed,
      when its diagnostics are replayed into this one. *)

  val limit_reached : t -> bool
  (** Whether the error cap has been hit (recovering parsers stop). *)

  val diagnostics : t -> diag list
  (** Everything recorded so far, in emission order. *)

  val error_count : t -> int
  val warning_count : t -> int
  val note_count : t -> int
  val suppressed_count : t -> int
  val has_errors : t -> bool

  val fail_fast : t option -> t * (('a, diag) result -> ('a, diag) result)
  (** How an entry point with an optional engine runs its one, fail-soft,
      code path: the engine to run it on, and what to do with its result.
      [fail_fast (Some e)] is [e] and the identity. [fail_fast None] is a
      private engine capped at one error, so a recovering reader stops
      soon after it, and a function that turns any result into [Error d]
      once the first error [d] was emitted to that engine. *)

  val printer : ?snippets:bool -> Format.formatter -> handler
  (** A handler printing each diagnostic (with snippets by default). *)

  val to_json : t -> string
  (** The whole run as a JSON document: counts plus every diagnostic. *)
end
