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
let src t = t.src
let file t = t.file
let offset t = t.off
let limit t = t.limit
let line t = t.line
let col t = t.off - t.line_start + 1

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

let jump t off =
  if off < t.off || off > t.limit then invalid_arg "Sbuf.jump";
  t.off <- off

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_ident_start c = is_alpha c || c = '_'
let is_ident_char c = is_alpha c || is_digit c || c = '_' || c = '$'
let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\n'

(* The skip loops below test characters inline instead of calling a
   predicate: they run once per byte of every token. None of the bytes
   they step over is a newline, so only the offset moves. *)

let skip_ident t =
  let src = t.src and limit = t.limit in
  let i = ref t.off in
  while !i < limit && is_ident_char (String.unsafe_get src !i) do incr i done;
  t.off <- !i

let skip_keyword t =
  let src = t.src and limit = t.limit in
  let i = ref t.off in
  while
    !i < limit
    &&
    let c = String.unsafe_get src !i in
    is_ident_char c || c = '.'
  do
    incr i
  done;
  t.off <- !i

let skip_trivia t =
  let src = t.src and limit = t.limit in
  let continue = ref true in
  while !continue && t.off < limit do
    match String.unsafe_get src t.off with
    | ' ' | '\t' | '\r' -> t.off <- t.off + 1
    | '\n' ->
        t.off <- t.off + 1;
        t.line <- t.line + 1;
        t.line_start <- t.off
    | '/' when t.off + 1 < limit && String.unsafe_get src (t.off + 1) = '/' ->
        let i = ref (t.off + 2) in
        while !i < limit && String.unsafe_get src !i <> '\n' do incr i done;
        t.off <- !i
    | _ -> continue := false
  done

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
