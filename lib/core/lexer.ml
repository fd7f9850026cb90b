(** Lexer for the IRDL surface syntax (paper §4).

    IRDL keywords ([Dialect], [Operation], [Operands], ...) are lexed as plain
    identifiers and recognized by the parser, so that they remain usable as
    definition names (MLIR dialects do define ops called e.g. [type]). *)

open Irdl_support

type token =
  | Ident of string  (** bare identifier, possibly dotted: [signedness.Signed] *)
  | Bang_ident of string  (** [!f32], [!cmath.complex] *)
  | Hash_ident of string  (** [#f32_attr] *)
  | Int_lit of int64
  | Str of string
  | Punct of string  (** one of [{ } ( ) < > , : = [ ] -] *)
  | Eof

type t = { tok : token; loc : Loc.t }

let pp_token ppf = function
  | Ident s -> Fmt.string ppf s
  | Bang_ident s -> Fmt.pf ppf "!%s" s
  | Hash_ident s -> Fmt.pf ppf "#%s" s
  | Int_lit i -> Fmt.pf ppf "%Ld" i
  | Str s -> Fmt.pf ppf "%S" s
  | Punct s -> Fmt.string ppf s
  | Eof -> Fmt.string ppf "<eof>"

let dotted_ident_char c = Sbuf.is_ident_char c || c = '.'

let lex_int buf start text =
  match Int64.of_string_opt text with
  | Some v -> v
  | None ->
      Diag.raise_error
        ~loc:(Sbuf.loc_from buf start)
        "integer literal '%s' out of range" text

let next_token buf : t =
  Sbuf.skip_trivia buf;
  let start = Sbuf.pos buf in
  let mk tok = { tok; loc = Sbuf.loc_from buf start } in
  if Sbuf.eof buf then mk Eof
  else
    match Sbuf.peek buf with
    | '"' ->
        Sbuf.advance buf;
        mk (Str (Sbuf.string_literal buf start))
    | '!' ->
        Sbuf.advance buf;
        mk (Bang_ident (Sbuf.take_while buf dotted_ident_char))
    | '#' ->
        Sbuf.advance buf;
        mk (Hash_ident (Sbuf.take_while buf dotted_ident_char))
    | c when Sbuf.is_digit c ->
        let text = Sbuf.take_while buf Sbuf.is_digit in
        mk (Int_lit (lex_int buf start text))
    | '-' when Sbuf.is_digit (Sbuf.peek2 buf) ->
        Sbuf.advance buf;
        let text = Sbuf.take_while buf Sbuf.is_digit in
        mk (Int_lit (Int64.neg (lex_int buf start text)))
    | c when Sbuf.is_ident_start c ->
        mk (Ident (Sbuf.take_while buf dotted_ident_char))
    | ('{' | '}' | '(' | ')' | '<' | '>' | ',' | ':' | '=' | '[' | ']' | '-') as c
      ->
        Sbuf.advance buf;
        mk (Punct (String.make 1 c))
    | c ->
        (* Consume the offending character so every lexer error leaves the
           buffer strictly advanced — the recovering parsers rely on that to
           retry lexing without looping. *)
        Sbuf.advance buf;
        Diag.raise_error ~loc:(Loc.point start) "unexpected character %C" c

(** Lex a whole buffer; used by tests and the round-trip property checks. *)
let tokenize ?(file = "<string>") src =
  let buf = Sbuf.create ~file src in
  let rec go acc =
    let t = next_token buf in
    match t.tok with Eof -> List.rev (t :: acc) | _ -> go (t :: acc)
  in
  go []
