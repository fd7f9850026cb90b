(** A character cursor over a window of an in-memory source buffer.

    Shared lexing base for the IRDL lexer, the generic IR-syntax lexer and
    the textual pattern parser. The cursor is an int offset plus the
    current line and the offset that line starts at, all mutable: peeking,
    advancing and skipping allocate nothing per character, and a
    {!Loc.pos} is built only when a lexer asks for one at a token
    boundary. *)

type window = { start : int; stop : int; first_line : int }

let whole src = { start = 0; stop = String.length src; first_line = 1 }

type t = {
  src : string;
  file : string;
  limit : int;  (** end of the window: the cursor never reads past it *)
  mutable off : int;
  mutable line : int;
  mutable line_start : int;  (** offset of the first byte of [line] *)
}

let create ?(file = "<string>") ?window src =
  let w = match window with Some w -> w | None -> whole src in
  if w.start < 0 || w.stop > String.length src || w.start > w.stop then
    invalid_arg "Sbuf.create: window out of bounds";
  (* Register the whole source, not the window: diagnostics over any
     window of it then render against the real file text. Registering the
     same string again is free, so every chunk of a split file shares one
     registration. *)
  Diag.Sources.register ~file src;
  { src; file; limit = w.stop; off = w.start; line = w.first_line;
    line_start = w.start }

let eof t = t.off >= t.limit

(* The sentinel for "no character": callers that must tell a NUL byte from
   the end of input test {!eof} first. *)
let peek t = if t.off < t.limit then String.unsafe_get t.src t.off else '\000'

let peek2 t =
  if t.off + 1 < t.limit then String.unsafe_get t.src (t.off + 1) else '\000'

let pos t =
  { Loc.file = t.file; line = t.line; col = t.off - t.line_start + 1;
    offset = t.off }

let advance t =
  if t.off < t.limit then begin
    if String.unsafe_get t.src t.off = '\n' then begin
      t.line <- t.line + 1;
      t.line_start <- t.off + 1
    end;
    t.off <- t.off + 1
  end

(** Consume [c] if it is the next character. *)
let accept t c =
  if t.off < t.limit && String.unsafe_get t.src t.off = c then begin
    advance t;
    true
  end
  else false

let skip_while t pred =
  while t.off < t.limit && pred (String.unsafe_get t.src t.off) do
    advance t
  done

type mark = { m_off : int; m_line : int; m_line_start : int }

let mark t = { m_off = t.off; m_line = t.line; m_line_start = t.line_start }

let reset t m =
  t.off <- m.m_off;
  t.line <- m.m_line;
  t.line_start <- m.m_line_start

(** The substring between two previously captured positions. *)
let slice t (a : Loc.pos) (b : Loc.pos) =
  String.sub t.src a.offset (b.offset - a.offset)

let take_while t pred =
  let start = t.off in
  skip_while t pred;
  String.sub t.src start (t.off - start)

let loc_from t (start : Loc.pos) = Loc.span start (pos t)

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_ident_start c = is_alpha c || c = '_'
let is_ident_char c = is_alpha c || is_digit c || c = '_' || c = '$'
let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\n'

let rec skip_trivia t =
  skip_while t is_space;
  if peek t = '/' && peek2 t = '/' then begin
    skip_while t (fun c -> c <> '\n');
    skip_trivia t
  end

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> -1

let string_literal t start =
  let b = Buffer.create 16 in
  let unterminated () =
    Diag.raise_error ~loc:(Loc.point start) "unterminated string"
  in
  let rec go () =
    if eof t then unterminated ();
    let c = peek t in
    advance t;
    match c with
    | '"' -> Buffer.contents b
    | '\\' ->
        if eof t then unterminated ();
        let e = peek t in
        advance t;
        let hi = hex_value e and lo = hex_value (peek t) in
        if hi >= 0 && lo >= 0 then (
          advance t;
          Buffer.add_char b (Char.chr ((hi * 16) + lo)))
        else
          Buffer.add_char b (match e with 'n' -> '\n' | 't' -> '\t' | c -> c);
        go ()
    | c ->
        Buffer.add_char b c;
        go ()
  in
  go ()
