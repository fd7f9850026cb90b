(** A character cursor over a window of an in-memory source buffer: the
    shared lexing base of the IRDL, IR-syntax and pattern lexers.

    The cursor is a mutable int offset, line and line start. {!peek},
    {!advance}, {!skip_while} and {!take_while} allocate nothing per
    character; a {!Loc.pos} is built only when {!pos} is called at a token
    boundary. Offsets in the positions it hands out are offsets into the
    whole source, whatever window the cursor reads. *)

type window = {
  start : int;  (** offset of the window's first byte *)
  stop : int;  (** offset one past its last byte *)
  first_line : int;  (** 1-based line number of the line at [start] *)
}
(** A byte range of a source that begins at the start of a line, e.g. one
    [--split-input-file] chunk. *)

val whole : string -> window
(** The window covering a whole source. *)

type t

val create : ?file:string -> ?window:window -> string -> t
(** A cursor over [window] (default: the whole source) of [src], at the
    window's start, reporting line [first_line], column 1 there. Registers
    the whole [src] in {!Diag.Sources} under [file] (a no-op when that very
    string is already registered), so diagnostics render against the real
    file text.
    @raise Invalid_argument when the window is not inside [src]. *)

val eof : t -> bool
(** Whether the cursor is at the end of its window. *)

val src : t -> string
(** The whole source the cursor reads a window of. *)

val file : t -> string

val offset : t -> int
(** The cursor's byte offset into {!src}. *)

val limit : t -> int
(** The offset one past the window's last byte. *)

val line : t -> int
val col : t -> int
(** The line and 1-based column of the cursor, as in {!pos}. *)

val peek : t -> char
(** The next character, or ['\000'] at the end of the window. A NUL byte
    in the input also reads as ['\000']: test {!eof} to tell them apart. *)

val peek2 : t -> char
(** The character after the next one, or ['\000'] past the window. *)

val pos : t -> Loc.pos
(** The current position (allocates one record). *)

val advance : t -> unit
(** Step past one character, tracking lines; no-op at the end. *)

val accept : t -> char -> bool
(** Consume [c] iff it is the next character. *)

val skip_while : t -> (char -> bool) -> unit

type mark
(** A saved cursor state, for backtracking. *)

val mark : t -> mark
val reset : t -> mark -> unit
(** Move the cursor back to a {!mark} taken from the same cursor. *)

val slice : t -> Loc.pos -> Loc.pos -> string
(** The substring between two previously captured positions. *)

val take_while : t -> (char -> bool) -> string
val loc_from : t -> Loc.pos -> Loc.t
(** The span from a saved position to the current one. *)

val jump : t -> int -> unit
(** [jump t off] moves the cursor forward to offset [off] on its current
    line: the caller guarantees no newline lies between.
    @raise Invalid_argument when [off] is behind the cursor or past the
    window. *)

(** Lexing steps shared by the IRDL and IR-syntax lexers. *)

val skip_ident : t -> unit
(** Skip {!is_ident_char} characters. *)

val skip_keyword : t -> unit
(** Skip {!is_ident_char} characters and dots: a dotted name. *)

val skip_trivia : t -> unit
(** Skip whitespace and [//] line comments. *)

val string_literal : t -> Loc.pos -> string
(** The body of a string literal whose opening quote, at [start], has just
    been consumed, up to and past the closing quote. A backslash and two
    hex digits is that byte (MLIR's [\1B]); [\n] and [\t] are escapes; a
    backslash before any other character quotes it.
    @raise Diag.Error_exn at [start] when the input ends first. *)

(** Character classifiers shared by the lexers. *)

val is_digit : char -> bool
val is_alpha : char -> bool
val is_ident_start : char -> bool
val is_ident_char : char -> bool
val is_space : char -> bool
