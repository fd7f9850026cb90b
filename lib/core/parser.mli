(** Recursive-descent parser for IRDL. The grammar is LL(1) over the token
    stream of {!Lexer}; keywords are contextual. *)

open Irdl_support

val parse_file :
  ?file:string ->
  ?engine:Diag.Engine.t ->
  string ->
  (Ast.dialect list, Diag.t) result
(** Parse a whole IRDL file: a sequence of [Dialect name { ... }].

    Every lexing/parsing error is emitted to [engine] and parsing resumes
    at the next item or dialect boundary, so one run reports all errors;
    the result is [Ok] with the dialects (and the items within them) that
    parsed. Without [engine] the same parse runs on a private engine and
    its first error is returned as [Error] ({!Diag.Engine.fail_fast}), as
    by every entry point below. *)

val parse_one : ?file:string -> string -> (Ast.dialect, Diag.t) result
(** Parse a source expected to contain exactly one dialect. *)

val parse_constraint_string :
  ?file:string -> string -> (Ast.cexpr, Diag.t) result
(** Parse a standalone constraint expression (tests and tooling). *)
