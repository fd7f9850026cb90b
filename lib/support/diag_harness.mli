(** MLIR-style diagnostic test harness: [--split-input-file] chunking and
    [--verify-diagnostics] expected-diagnostic annotations. *)

val split_input : string -> Sbuf.window list
(** Split a source at [// -----] separator lines (blanks around the dashes
    allowed) into independent chunks, in order. Each chunk is a window of
    the unchanged source: the lines strictly between two separators,
    without the newline ending the last of them, and the number of its
    first line, so diagnostics keep the line numbers and offsets of the
    original file. A source without separators is one window covering
    all of it. *)

type expectation = {
  exp_file : string;
  exp_line : int;  (** line the diagnostic must be located on *)
  exp_decl_line : int;  (** line of the annotation comment itself *)
  exp_severity : Diag.severity;
  exp_substr : string;  (** substring the message must contain *)
  mutable exp_matched : bool;
}

val scan_expectations : file:string -> string -> expectation list * Diag.t list
(** All [// expected-error@<offset> {{substr}}] annotations (and the
    [-warning]/[-note] variants) in a source, plus harness errors for
    malformed annotations. Offsets: none (same line), [@+N], [@-N],
    [@above], [@below]. *)

val scan :
  file:string -> string -> Sbuf.window list * (expectation list * Diag.t list)
(** {!split_input} and {!scan_expectations} from one walk. *)

val check : expectations:expectation list -> Diag.t list -> Diag.t list
(** Match produced diagnostics against the expectations (marking them
    fulfilled). Returns harness failures: unexpected errors/warnings and
    expectations nothing fulfilled. Notes are matched when annotated but
    un-annotated notes are not failures. *)
