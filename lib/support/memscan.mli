(** Byte search and counting over a source, at [memchr] speed: the few
    bytes the diagnostics harness and the snippet renderer look for
    ([//], newlines) are found without an OCaml loop over every byte. *)

val index : string -> char -> from:int -> stop:int -> int
(** The first index in [\[from, stop)] holding the byte, or -1.
    @raise Invalid_argument when the range is not inside the string. *)

val count : string -> char -> from:int -> stop:int -> int
(** How many bytes in [\[from, stop)] are the byte.
    @raise Invalid_argument when the range is not inside the string. *)

val line_starts : string -> int array
(** The offset of every line's first byte, in order: [0], then one past
    each newline. A source ending in a newline ends with an empty line. *)
