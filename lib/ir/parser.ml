(** Parser for the textual IR syntax produced by {!Printer}.

    Accepts both the generic form ["cmath.mul"(%a, %b) : (t, t) -> t] and,
    for operations registered with a declarative format, the custom pretty
    form [cmath.mul %a, %b : f32]. Forward references to values and blocks
    are allowed within a region (SSA dominance is not a parsing concern).

    The lexer is a cursor: the current token's kind, payload and span are
    mutable fields of the parser, so lexing a token allocates nothing and a
    {!Loc.t} is built only where one is stored or reported. Names and type
    spellings go through a per-domain table (see "The name table"). *)

open Irdl_support

(* ------------------------------------------------------------------ *)
(* Builtin type names                                                  *)
(* ------------------------------------------------------------------ *)

(* The positive width spelled by the digits of [s] from [i] to its end, or
   -1 when there are none, a non-digit, or more than [max_int] — exactly
   what [int_of_string_opt] accepts of a digit string. *)
let rec width_from s i acc =
  if i = String.length s then acc
  else
    let c = String.unsafe_get s i in
    if not (Sbuf.is_digit c) then -1
    else
      let d = Char.code c - 48 in
      if acc > (max_int - d) / 10 then -1
      else width_from s (i + 1) ((acc * 10) + d)

let int_ty_of_ident s : Attr.ty option =
  let n = String.length s in
  let width signedness i =
    if n > i then
      match width_from s i 0 with
      | width when width > 0 -> Some (Attr.integer ~signedness width)
      | _ -> None (* zero or absurdly wide: not a builtin integer type *)
    else None
  in
  if n >= 2 && s.[0] = 's' && s.[1] = 'i' then width Attr.Signed 2
  else if n >= 2 && s.[0] = 'u' && s.[1] = 'i' then width Attr.Unsigned 2
  else if n >= 1 && s.[0] = 'i' then width Attr.Signless 1
  else None

let builtin_ty_of_ident s : Attr.ty option =
  match s with
  | "f16" -> Some Attr.f16
  | "f32" -> Some Attr.f32
  | "f64" -> Some Attr.f64
  | "bf16" -> Some Attr.bf16
  | "index" -> Some Attr.index
  | "none" -> Some Attr.none
  | _ -> int_ty_of_ident s

(* ------------------------------------------------------------------ *)
(* The name table                                                      *)
(* ------------------------------------------------------------------ *)

(* One table per domain maps each distinct spelling — an identifier, an
   op name, a plain string literal, a [!]/[#]/[@] name, or a whole
   [!d.t<...>] type spelling — to one entry holding a shared copy of it.
   It is probed by hashing the source bytes in place, so a repeated
   spelling costs no allocation. An entry also caches what the parser
   asks of a spelling: the builtin type it names, its [dialect.name]
   split and, for a type spelling, the type it parsed to.

   The cached types come from the domain's own uniquer shard ({!Attr}):
   the table is domain-local for the same reason. It is a cache with a
   fixed size: when it fills it is emptied, so a stream of distinct names
   costs at most a clear per [table_cap] of them. It is created on the
   first parse in a domain and lives as long as the domain, so per-chunk
   sessions do not allocate it again. *)

type entry = {
  spelling : string;
  builtin : Attr.ty option;  (** the builtin type it names as an identifier *)
  dotted : (string * string) option;  (** split at its first dot *)
  mutable memo : Attr.ty option;
      (** for a [!d.t<...>] spelling: the type a full parse of exactly
          these bytes returned *)
}

let split_at_dot s =
  match String.index_opt s '.' with
  | Some i ->
      Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> None

(* The builtin type is interned here, in the table's domain, like every
   other type the parser builds: ops are created from them without
   re-interning. *)
let make_entry s =
  { spelling = s; builtin = Option.map Attr.intern_ty (builtin_ty_of_ident s);
    dotted = split_at_dot s; memo = None }

(* Marks a free slot; never handed out. *)
let vacant = { spelling = ""; builtin = None; dotted = None; memo = None }

let table_slots = 8192 (* a power of two *)
let table_cap = table_slots / 2

(* Longer spellings bypass the table: a fresh copy is made each time. *)
let max_spelling = 256

type table = {
  slots : entry array;  (** open addressing, linear probing *)
  mutable used : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
}

let table_key : table Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { slots = Array.make table_slots vacant; used = 0; memo_hits = 0;
        memo_misses = 0 })

(* FNV-1a over [src.[off .. stop-1]]. *)
let hash_span src off stop =
  let h = ref 0x811c9dc5 in
  for i = off to stop - 1 do
    h := (!h lxor Char.code (String.unsafe_get src i)) * 0x100000001b3
  done;
  !h lxor (!h lsr 29)

let rec same_bytes k src off i n =
  i = n
  || String.unsafe_get k i = String.unsafe_get src (off + i)
     && same_bytes k src off (i + 1) n

(* The slot holding [src.[off .. off+len-1]], or the free slot where it
   belongs. *)
let rec probe slots src off len mask i =
  let e = Array.unsafe_get slots i in
  if e == vacant
     || (String.length e.spelling = len && same_bytes e.spelling src off 0 len)
  then i
  else probe slots src off len mask ((i + 1) land mask)

let intern_span tbl src off stop =
  let len = stop - off in
  if len > max_spelling then make_entry (String.sub src off len)
  else
    let mask = table_slots - 1 in
    let home = hash_span src off stop land mask in
    let i = probe tbl.slots src off len mask home in
    let e = Array.unsafe_get tbl.slots i in
    if e != vacant then e
    else begin
      let e = make_entry (String.sub src off len) in
      if tbl.used >= table_cap then begin
        Array.fill tbl.slots 0 table_slots vacant;
        tbl.used <- 0;
        tbl.slots.(home) <- e
      end
      else tbl.slots.(i) <- e;
      tbl.used <- tbl.used + 1;
      e
    end

let name_table_cap = table_cap
let name_table_entries () = (Domain.DLS.get table_key).used

let type_memo_stats () =
  let t = Domain.DLS.get table_key in
  (t.memo_hits, t.memo_misses)

(* The end (one past the closing [>]) of the type spelling whose [<] is
   just before [i], or -1. Strings are skipped, [->] is not a closer, and
   the scan gives up at a newline, a brace or [stop]. The result is only a
   candidate: a spelling is memoized only when a full parse consumed
   exactly it. *)
let rec spelling_end src stop i depth =
  if i >= stop then -1
  else
    match String.unsafe_get src i with
    | '<' -> spelling_end src stop (i + 1) (depth + 1)
    | '>' ->
        if depth = 1 then i + 1
        else spelling_end src stop (i + 1) (depth - 1)
    | '-' when i + 1 < stop && String.unsafe_get src (i + 1) = '>' ->
        spelling_end src stop (i + 2) depth
    | '"' -> quoted_end src stop (i + 1) depth
    | '\n' | '{' | '}' -> -1
    | _ -> spelling_end src stop (i + 1) depth

and quoted_end src stop i depth =
  if i >= stop then -1
  else
    match String.unsafe_get src i with
    | '"' -> spelling_end src stop (i + 1) depth
    | '\n' -> -1
    | '\\' ->
        if i + 1 < stop && String.unsafe_get src (i + 1) <> '\n' then
          quoted_end src stop (i + 2) depth
        else -1
    | _ -> quoted_end src stop (i + 1) depth

(* ------------------------------------------------------------------ *)
(* Tokens                                                              *)
(* ------------------------------------------------------------------ *)

(* A token's kind; its payload and span are fields of the parser. *)
type token =
  | Value_id  (** [%x] *)
  | Block_id  (** [^bb0] *)
  | Symbol_id  (** [@sym] *)
  | Bang_id  (** [!cmath.complex] (dotted) *)
  | Hash_id  (** [#cmath.attr] (dotted) *)
  | Ident  (** bare, possibly dotted: [cmath.mul], [f32] *)
  | Str
  | Int_lit
  | Hex_lit
      (** [0x7FF0000000000000]: an integer, or a double's bits before a
          float type *)
  | Float_lit
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Lbrack
  | Rbrack
  | Less
  | Greater
  | Comma
  | Colon
  | Equal
  | Minus
  | Arrow
  | Eof

let punct_text = function
  | Lparen -> "("
  | Rparen -> ")"
  | Lbrace -> "{"
  | Rbrace -> "}"
  | Lbrack -> "["
  | Rbrack -> "]"
  | Less -> "<"
  | Greater -> ">"
  | Comma -> ","
  | Colon -> ":"
  | Equal -> "="
  | Minus -> "-"
  | Arrow -> "->"
  | Value_id | Block_id | Symbol_id | Bang_id | Hash_id | Ident | Str
  | Int_lit | Hex_lit | Float_lit | Eof ->
      ""

(* ------------------------------------------------------------------ *)
(* Parser state                                                        *)
(* ------------------------------------------------------------------ *)

type forward = {
  f_name : string;
  f_loc : Loc.t;  (** the first use *)
  f_val : Graph.value;  (** the placeholder, patched in place when defined *)
}

type t = {
  ctx : Context.t;
  buf : Sbuf.t;
  names : table;
  engine : Diag.Engine.t option;
      (** when set, lexing and op sequences recover instead of aborting *)
  budget : Limits.budget;
      (** resource accounting; blown budgets raise {!Diag.Fatal_exn}, which
          deliberately escapes the fail-soft recovery below *)
  (* The current token. *)
  mutable tok : token;
  mutable text : string;
      (** the name of an id or ident token, the body of a string *)
  mutable entry : entry;
      (** name-table entry of an ident, [#] or [@] name; of a [!] name once
          {!bang_entry} asked for it *)
  mutable num : int64;  (** value of an [Int_lit] or [Hex_lit] *)
  mutable fnum : float;  (** value of a [Float_lit] *)
  mutable t_off : int;
  mutable t_line : int;
  mutable t_col : int;
  mutable e_off : int;
  mutable e_line : int;
  mutable e_col : int;
  mutable last_end : int;  (** end offset of the last consumed token *)
  mutable lex_errors : int;  (** lexer errors recovered so far *)
  values : (string, Graph.value) Hashtbl.t;
  (* Forward references: placeholders in creation order. Every one below
     [fwd_low] has been defined, so "all forwards created before id [n]
     resolved" is an amortized O(1) check. *)
  mutable fwds : forward array;
  mutable n_fwds : int;
  mutable fwd_low : int;
}

let pos_at p off line col =
  { Loc.file = Sbuf.file p.buf; line; col; offset = off }
let start_pos p = pos_at p p.t_off p.t_line p.t_col

let loc p =
  Loc.span (start_pos p) (pos_at p p.e_off p.e_line p.e_col)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let float_token p text =
  match float_of_string_opt text with
  | Some f ->
      p.fnum <- f;
      Float_lit
  | None ->
      Diag.raise_error
        ~loc:(Loc.span (start_pos p) (Sbuf.pos p.buf))
        "malformed numeric literal '%s'" text

let lex_number p =
  let buf = p.buf in
  ignore (Sbuf.accept buf '-');
  (* Hex floats (0x1.9p+1) and hex ints (0xff). *)
  let is_hex =
    Sbuf.peek buf = '0' && (Sbuf.peek2 buf = 'x' || Sbuf.peek2 buf = 'X')
  in
  if is_hex then (
    Sbuf.advance buf;
    Sbuf.advance buf;
    Sbuf.skip_while buf (fun c ->
        Sbuf.is_digit c
        || (c >= 'a' && c <= 'f')
        || (c >= 'A' && c <= 'F')
        || c = '.' || c = 'p' || c = 'P' || c = '+' || c = '-'))
  else (
    Sbuf.skip_while buf Sbuf.is_digit;
    if Sbuf.peek buf = '.' && Sbuf.is_digit (Sbuf.peek2 buf) then (
      Sbuf.advance buf;
      Sbuf.skip_while buf Sbuf.is_digit);
    if Sbuf.peek buf = 'e' || Sbuf.peek buf = 'E' then (
      Sbuf.advance buf;
      ignore (Sbuf.accept buf '+' || Sbuf.accept buf '-');
      Sbuf.skip_while buf Sbuf.is_digit));
  let text = String.sub (Sbuf.src buf) p.t_off (Sbuf.offset buf - p.t_off) in
  if
    String.contains text '.'
    || (not is_hex) && (String.contains text 'e' || String.contains text 'E')
    || (is_hex && (String.contains text 'p' || String.contains text 'P'))
  then float_token p text
  else
    match Int64.of_string_opt text with
    | Some i ->
        p.num <- i;
        if is_hex then Hex_lit else Int_lit
    | None -> float_token p text

(* The offset of the closing quote of a string body starting at [i] that
   has no escape and no newline, or -1. *)
let rec plain_string_end src limit i =
  if i >= limit then -1
  else
    match String.unsafe_get src i with
    | '"' -> i
    | '\\' | '\n' -> -1
    | _ -> plain_string_end src limit (i + 1)

let lex_string p =
  let buf = p.buf in
  let src = Sbuf.src buf and body = p.t_off + 1 in
  let close = plain_string_end src (Sbuf.limit buf) body in
  if close >= 0 then begin
    p.text <-
      (if close - body <= max_spelling then
         (intern_span p.names src body close).spelling
       else String.sub src body (close - body));
    Sbuf.jump buf (close + 1)
  end
  else begin
    Sbuf.advance buf;
    p.text <- Sbuf.string_literal buf (start_pos p)
  end;
  Str

(* A [%] or [^] name: not interned, they rarely repeat across chunks. *)
let lex_id p tok =
  let buf = p.buf in
  Sbuf.advance buf;
  let start = Sbuf.offset buf in
  Sbuf.skip_ident buf;
  p.text <- String.sub (Sbuf.src buf) start (Sbuf.offset buf - start);
  tok

let lex_name p ~skip tok =
  let buf = p.buf in
  if skip then Sbuf.advance buf;
  let start = Sbuf.offset buf in
  Sbuf.skip_keyword buf;
  let e = intern_span p.names (Sbuf.src buf) start (Sbuf.offset buf) in
  p.entry <- e;
  p.text <- e.spelling;
  tok

(* A [!] name is interned only when asked for, by {!bang_entry}: a
   memoized type spelling skips it. *)
let lex_bang p =
  let buf = p.buf in
  Sbuf.advance buf;
  Sbuf.skip_keyword buf;
  p.entry <- vacant;
  Bang_id

let lex_punct p tok =
  Sbuf.advance p.buf;
  tok

let lex p =
  let buf = p.buf in
  Sbuf.skip_trivia buf;
  p.t_off <- Sbuf.offset buf;
  p.t_line <- Sbuf.line buf;
  p.t_col <- Sbuf.col buf;
  p.tok <-
    (if Sbuf.eof buf then Eof
     else
       match Sbuf.peek buf with
       | '"' -> lex_string p
       | '%' -> lex_id p Value_id
       | '^' -> lex_id p Block_id
       | '@' -> lex_name p ~skip:true Symbol_id
       | '!' -> lex_bang p
       | '#' -> lex_name p ~skip:true Hash_id
       | '-' when Sbuf.peek2 buf = '>' ->
           Sbuf.advance buf;
           Sbuf.advance buf;
           Arrow
       | c when Sbuf.is_digit c -> lex_number p
       | '-' when Sbuf.is_digit (Sbuf.peek2 buf) -> lex_number p
       | c when Sbuf.is_ident_start c -> lex_name p ~skip:false Ident
       | '(' -> lex_punct p Lparen
       | ')' -> lex_punct p Rparen
       | '{' -> lex_punct p Lbrace
       | '}' -> lex_punct p Rbrace
       | '[' -> lex_punct p Lbrack
       | ']' -> lex_punct p Rbrack
       | '<' -> lex_punct p Less
       | '>' -> lex_punct p Greater
       | ',' -> lex_punct p Comma
       | ':' -> lex_punct p Colon
       | '=' -> lex_punct p Equal
       | '-' -> lex_punct p Minus
       | c ->
           (* Consume the offending character so every lexer error leaves
              the buffer strictly advanced — fail-soft retry relies on
              that. *)
           Sbuf.advance buf;
           Diag.raise_error ~loc:(Loc.point (start_pos p))
             "unexpected character %C" c);
  p.e_off <- Sbuf.offset buf;
  p.e_line <- Sbuf.line buf;
  p.e_col <- Sbuf.col buf

(* Lex the next token; in fail-soft mode lexer errors go to the engine and
   lexing is retried (every lexer raise leaves the buffer advanced). *)
let rec next_token p =
  match p.engine with
  | None -> lex p
  | Some e -> (
      match lex p with
      | () -> ()
      | exception Diag.Error_exn d ->
          Diag.Engine.emit e d;
          p.lex_errors <- p.lex_errors + 1;
          next_token p)

(* A parser before its first token: it reads as [Eof]. *)
let make ?engine ~budget ctx buf =
  { ctx; buf; names = Domain.DLS.get table_key; engine; budget; tok = Eof;
    text = ""; entry = vacant; num = 0L; fnum = 0.; t_off = 0; t_line = 0;
    t_col = 0; e_off = 0; e_line = 0; e_col = 0; last_end = 0;
    lex_errors = 0; values = Hashtbl.create 64; fwds = [||]; n_fwds = 0;
    fwd_low = 0 }

let create ?(file = "<string>") ?engine ?(limits = Limits.unlimited) ?window
    ctx src =
  let budget = Limits.budget limits in
  let w = match window with Some w -> w | None -> Sbuf.whole src in
  let buf = Sbuf.create ~file ~window:w src in
  Limits.check_payload budget
    ~loc:(Loc.point (Sbuf.pos buf))
    (w.Sbuf.stop - w.Sbuf.start);
  Failpoints.hit "parse";
  let p = make ?engine ~budget ctx buf in
  next_token p;
  p

let advance p =
  p.last_end <- p.e_off;
  next_token p

let bang_entry p =
  if p.entry == vacant then begin
    let e = intern_span p.names (Sbuf.src p.buf) (p.t_off + 1) p.e_off in
    p.entry <- e;
    p.text <- e.spelling
  end;
  p.entry

let pp_token p ppf () =
  match p.tok with
  | Value_id -> Fmt.pf ppf "%%%s" p.text
  | Block_id -> Fmt.pf ppf "^%s" p.text
  | Symbol_id -> Fmt.pf ppf "@%s" p.text
  | Bang_id -> Fmt.pf ppf "!%s" (bang_entry p).spelling
  | Hash_id -> Fmt.pf ppf "#%s" p.text
  | Ident -> Fmt.string ppf p.text
  | Str -> Fmt.pf ppf "%S" p.text
  | Int_lit -> Fmt.pf ppf "%Ld" p.num
  | Hex_lit -> Fmt.pf ppf "0x%LX" p.num
  | Float_lit -> Fmt.float ppf p.fnum
  | Eof -> Fmt.string ppf "<eof>"
  | punct -> Fmt.string ppf (punct_text punct)

let fail p fmt =
  Diag.raise_error ~loc:(loc p)
    ("%a: " ^^ fmt)
    (fun ppf () -> Fmt.pf ppf "at '%a'" (pp_token p) ())
    ()

let expect p tok =
  if p.tok == tok then advance p
  else fail p "expected '%s'" (punct_text tok)

let accept p tok =
  p.tok == tok
  && begin
       advance p;
       true
     end

let expect_ident p =
  if p.tok != Ident then fail p "expected identifier";
  let s = p.text in
  advance p;
  s

(* Consume a token and return its string payload — or fail at the token
   after it, when it was not a string. *)
let take_string p what =
  let tok = p.tok and s = p.text in
  advance p;
  if tok == Str then s else fail p "expected %s" what

let take_int p what =
  let tok = p.tok and v = p.num in
  advance p;
  if tok == Int_lit then Int64.to_int v else fail p "expected %s" what

(* The [dialect.name] halves of a name already consumed. *)
let dialect_name p (e : entry) =
  match e.dotted with
  | Some dn -> dn
  | None -> fail p "expected 'dialect.name', got '%s'" e.spelling

(* ------------------------------------------------------------------ *)
(* Types and attributes                                                *)
(* ------------------------------------------------------------------ *)

let rec parse_ty p : Attr.ty =
  match p.tok with
  | Ident when String.equal p.text "tuple" ->
      advance p;
      expect p Less;
      Attr.tuple (parse_ty_list_until p Greater)
  | Ident -> (
      match p.entry.builtin with
      | Some ty ->
          advance p;
          ty
      | None -> fail p "unknown builtin type '%s'" p.text)
  | Bang_id ->
      if Sbuf.peek p.buf = '<' then parse_spelled_ty p else parse_dynamic_ty p
  | Lparen ->
      advance p;
      let inputs = parse_ty_list_until p Rparen in
      expect p Arrow;
      let outputs =
        if accept p Lparen then parse_ty_list_until p Rparen else [ parse_ty p ]
      in
      Attr.function_ty ~inputs ~outputs
  | _ -> fail p "expected a type"

(* [!d.t<...>] with the [<] right after the name: the type-spelling memo.
   Parsing reads no context state, so the same bytes always parse to the
   same type; a hit skips them in one jump (no newline inside, so only the
   column moves). A spelling is recorded only when a full parse consumed
   exactly the scanned bytes without a recovered lexer error. *)
and parse_spelled_ty p =
  let buf = p.buf in
  let src = Sbuf.src buf in
  let stop =
    spelling_end src
      (min (Sbuf.limit buf) (p.t_off + max_spelling))
      (Sbuf.offset buf + 1) 1
  in
  if stop < 0 then parse_dynamic_ty p
  else
    let key = intern_span p.names src p.t_off stop in
    match key.memo with
    | Some ty ->
        p.names.memo_hits <- p.names.memo_hits + 1;
        Sbuf.jump buf stop;
        p.last_end <- stop;
        next_token p;
        ty
    | None ->
        p.names.memo_misses <- p.names.memo_misses + 1;
        let lex_errors = p.lex_errors in
        let ty = parse_dynamic_ty p in
        if p.last_end = stop && p.lex_errors = lex_errors then
          key.memo <- Some ty;
        ty

and parse_dynamic_ty p =
  let e = bang_entry p in
  advance p;
  let dialect, name = dialect_name p e in
  let params = if accept p Less then parse_attr_list_until p Greater else [] in
  Attr.dynamic ~dialect ~name params

and parse_ty_list_until p closer =
  if accept p closer then [] else parse_ty_list p closer []

and parse_ty_list p closer acc =
  let ty = parse_ty p in
  if accept p Comma then parse_ty_list p closer (ty :: acc)
  else (
    expect p closer;
    List.rev (ty :: acc))

and parse_attr p : Attr.t =
  match p.tok with
  | Ident -> (
      match p.text with
      | "unit" ->
          advance p;
          Attr.unit
      | "true" ->
          advance p;
          Attr.bool true
      | "false" ->
          advance p;
          Attr.bool false
      | "loc" ->
          advance p;
          expect p Lparen;
          let file = take_string p "file string in loc" in
          expect p Colon;
          let line = take_int p "line number in loc" in
          expect p Colon;
          let col = take_int p "column number in loc" in
          expect p Rparen;
          Attr.location ~file ~line ~col
      | _ -> Attr.typ (parse_ty p))
  | Str ->
      let s = p.text in
      advance p;
      Attr.string s
  | Int_lit ->
      let v = p.num in
      advance p;
      let ty = if accept p Colon then parse_ty p else Attr.i64 in
      Attr.int ~ty v
  | Hex_lit ->
      let v = p.num in
      advance p;
      let ty = if accept p Colon then parse_ty p else Attr.i64 in
      if Attr.is_float_ty ty then Attr.float ~ty (Int64.float_of_bits v)
      else Attr.int ~ty v
  | Float_lit ->
      let v = p.fnum in
      advance p;
      let ty = if accept p Colon then parse_ty p else Attr.f64 in
      Attr.float ~ty v
  | Symbol_id ->
      let s = p.text in
      advance p;
      Attr.symbol s
  | Lbrack ->
      advance p;
      Attr.array (parse_attr_list_until p Rbrack)
  | Lbrace ->
      advance p;
      Attr.dict (parse_attr_dict_entries p)
  | Hash_id -> parse_hash_attr p
  | Bang_id | Lparen -> Attr.typ (parse_ty p)
  | _ -> fail p "expected an attribute"

and parse_hash_attr p =
  let e = p.entry in
  advance p;
  match e.spelling with
  | "typeid" ->
      expect p Less;
      let id = expect_ident p in
      expect p Greater;
      Attr.type_id id
  | "native" ->
      expect p Less;
      let tag = expect_ident p in
      expect p Comma;
      let repr = take_string p "string repr in #native" in
      expect p Greater;
      Attr.opaque ~tag repr
  | dialect -> (
      match e.dotted with
      | Some (dialect, name) ->
          let params =
            if accept p Less then parse_attr_list_until p Greater else []
          in
          Attr.dyn_attr ~dialect ~name params
      | None ->
          (* Enum attribute: #dialect<enum.Case> *)
          expect p Less;
          if p.tok != Ident then fail p "expected identifier";
          let path = p.entry in
          advance p;
          let enum, case = dialect_name p path in
          expect p Greater;
          Attr.enum ~dialect ~enum case)

and parse_attr_list_until p closer =
  if accept p closer then [] else parse_attr_list p closer []

and parse_attr_list p closer acc =
  let a = parse_attr p in
  if accept p Comma then parse_attr_list p closer (a :: acc)
  else (
    expect p closer;
    List.rev (a :: acc))

and parse_attr_dict_entries p =
  if accept p Rbrace then [] else parse_dict_entries p []

and parse_dict_entries p acc =
  let key = expect_ident p in
  expect p Equal;
  let v = parse_attr p in
  if accept p Comma then parse_dict_entries p ((key, v) :: acc)
  else (
    expect p Rbrace;
    List.rev ((key, v) :: acc))

(* ------------------------------------------------------------------ *)
(* Values and blocks                                                   *)
(* ------------------------------------------------------------------ *)

let add_forward p f =
  if p.n_fwds = Array.length p.fwds then begin
    let grown = Array.make (max 8 (2 * p.n_fwds)) f in
    Array.blit p.fwds 0 grown 0 p.n_fwds;
    p.fwds <- grown
  end;
  p.fwds.(p.n_fwds) <- f;
  p.n_fwds <- p.n_fwds + 1

let resolved f =
  match f.f_val.Graph.v_def with Graph.Forward_ref _ -> false | _ -> true

(* The number of leading forwards, in creation order, that have all been
   defined. Monotone, so the whole parse spends O(forwards) here. *)
let resolved_prefix p =
  while p.fwd_low < p.n_fwds && resolved p.fwds.(p.fwd_low) do
    p.fwd_low <- p.fwd_low + 1
  done;
  p.fwd_low

(* The forwards never defined, in creation order. *)
let undefined p =
  let low = resolved_prefix p in
  let rec go i acc =
    if i < low then acc
    else go (i - 1) (if resolved p.fwds.(i) then acc else p.fwds.(i) :: acc)
  in
  go (p.n_fwds - 1) []

(** Resolve a value use; creates a forward placeholder on first use before
    definition, remembering where that first use was for error reporting. *)
let parse_value_use p =
  if p.tok != Value_id then fail p "expected SSA value name";
  let name = p.text in
  match Hashtbl.find p.values name with
  | v ->
      advance p;
      v
  | exception Not_found ->
      let v = Graph.Value.forward_ref name in
      add_forward p { f_name = name; f_loc = loc p; f_val = v };
      Hashtbl.replace p.values name v;
      advance p;
      v

(** Bind a definition for [name]. If a forward placeholder exists it is
    patched in place (keeping use identity) and returned. *)
let define_value p name (fresh : Graph.value) =
  match Hashtbl.find p.values name with
  | { v_def = Graph.Forward_ref _; _ } as placeholder ->
      placeholder.v_ty <- fresh.v_ty;
      placeholder.v_def <- fresh.v_def;
      placeholder
  | _ ->
      Hashtbl.replace p.values name fresh;
      fresh
  | exception Not_found ->
      Hashtbl.add p.values name fresh;
      fresh

let expect_value_id p =
  if p.tok != Value_id then fail p "expected SSA value name";
  let s = p.text in
  advance p;
  s

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

(* Whether the current token can plausibly start an operation (or block
   label) — the sync points of panic-mode recovery. *)
let at_op_start p =
  match p.tok with
  | Value_id | Str | Block_id -> true
  | Ident -> Option.is_some p.entry.dotted
  | _ -> false

(* Skip tokens after a failed operation until something that can start the
   next one, a closing [}] of the enclosing region (left unconsumed for the
   region parser), or end of file. Brace/paren nesting is tracked so tokens
   inside the abandoned op's sub-structure are not mistaken for sync
   points. *)
let rec resync_op p depth =
  match p.tok with
  | Eof -> ()
  | Rbrace when depth = 0 -> ()
  | _ when depth = 0 && at_op_start p -> ()
  | Lbrace | Lparen ->
      advance p;
      resync_op p (depth + 1)
  | Rbrace | Rparen ->
      advance p;
      resync_op p (max 0 (depth - 1))
  | _ ->
      advance p;
      resync_op p depth

(* After an op failed and recovery resynchronized: never loop without
   consuming. *)
let ensure_progress p ~before =
  if p.t_off = before then
    match p.tok with Eof | Rbrace | Block_id -> () | _ -> advance p

type block_scope = (string, Graph.block) Hashtbl.t

let scope_block (scope : block_scope) name =
  match Hashtbl.find_opt scope name with
  | Some b -> b
  | None ->
      let b = Graph.Block.create () in
      Hashtbl.replace scope name b;
      b

let rec parse_names p acc =
  let n = expect_value_id p in
  if accept p Comma then parse_names p (n :: acc) else List.rev (n :: acc)

let rec parse_operands p acc =
  let v = parse_value_use p in
  if accept p Comma then parse_operands p (v :: acc)
  else (
    expect p Rparen;
    List.rev (v :: acc))

(* Set (for forwards) or check operand types. *)
let rec bind_operand_tys ~name ~op_loc (operands : Graph.value list) tys =
  match (operands, tys) with
  | v :: vs, ty :: tys ->
      (match v.v_def with
      | Graph.Forward_ref _ -> v.v_ty <- ty
      | _ ->
          if not (Attr.equal_ty v.v_ty ty) then
            Diag.raise_error ~loc:op_loc
              "'%s': operand has type %s but was declared with %s" name
              (Attr.ty_to_string v.v_ty) (Attr.ty_to_string ty));
      bind_operand_tys ~name ~op_loc vs tys
  | _ -> ()

let rec parse_op p ~(scope : block_scope option) : Graph.op =
  let op_loc = loc p in
  (* Budget accounting happens before anything is consumed; a blown budget
     raises [Fatal_exn], which skips op-boundary recovery entirely. *)
  Limits.tick_op p.budget ~loc:op_loc;
  (* Optional result list: %a, %b = ... *)
  let result_names =
    if p.tok == Value_id then (
      let names = parse_names p [] in
      expect p Equal;
      names)
    else []
  in
  let op =
    match p.tok with
    | Str ->
        let name = p.text in
        advance p;
        parse_generic_body p ~scope ~name ~op_loc
    | Ident when Option.is_some p.entry.dotted -> (
        let name = p.text in
        advance p;
        match Context.lookup_op p.ctx name with
        | Some ({ od_format = Some f; _ } as od) ->
            parse_custom_body p ~name ~od ~format:f ~op_loc
        | Some _ ->
            fail p
              "operation '%s' has no declarative format; use the generic \
               \"%s\"(...) form"
              name name
        | None -> fail p "unknown operation '%s' in custom form" name)
    | _ -> fail p "expected an operation"
  in
  if result_names <> [] then (
    if List.length result_names <> Graph.Op.num_results op then
      Diag.raise_error ~loc:op_loc
        "'%s' produces %d results but %d names were bound" op.Graph.op_name
        (Graph.Op.num_results op)
        (List.length result_names);
    (* Forward placeholders are patched in place and substituted for the
       fresh result values, keeping the identity earlier uses point at. *)
    List.iteri
      (fun i name ->
        op.Graph.op_results.(i) <-
          define_value p name op.Graph.op_results.(i))
      result_names);
  op

and parse_generic_body p ~scope ~name ~op_loc : Graph.op =
  expect p Lparen;
  let operands = if accept p Rparen then [] else parse_operands p [] in
  let successors =
    if accept p Lbrack then (
      let scope =
        match scope with
        | Some s -> s
        | None ->
            Diag.raise_error ~loc:op_loc
              "successors are only allowed inside a region"
      in
      let rec go acc =
        let tok = p.tok and b = p.text in
        advance p;
        if tok != Block_id then fail p "expected block name";
        let blk = scope_block scope b in
        if accept p Comma then go (blk :: acc)
        else (
          expect p Rbrack;
          List.rev (blk :: acc))
      in
      go [])
    else []
  in
  let regions =
    if accept p Lparen then
      let rec go acc =
        let r = parse_region p in
        if accept p Comma then go (r :: acc)
        else (
          expect p Rparen;
          List.rev (r :: acc))
      in
      go []
    else []
  in
  let attrs = if accept p Lbrace then parse_attr_dict_entries p else [] in
  expect p Colon;
  expect p Lparen;
  let operand_tys = parse_ty_list_until p Rparen in
  expect p Arrow;
  let result_tys =
    if accept p Lparen then parse_ty_list_until p Rparen else [ parse_ty p ]
  in
  if List.compare_lengths operand_tys operands <> 0 then
    Diag.raise_error ~loc:op_loc
      "'%s': %d operands but %d operand types" name (List.length operands)
      (List.length operand_tys);
  bind_operand_tys ~name ~op_loc operands operand_tys;
  (* Every type and attribute parsed is already canonical in this domain's
     uniquer shard. *)
  Graph.Op.create_prebuilt ~operands:(Array.of_list operands)
    ~result_tys:(Array.of_list result_tys) ~attrs ~regions ~successors
    ~loc:op_loc name

(* Operations up to the end of a block. In fail-soft mode each operation is
   parsed under its own protection, so one bad op in a block does not
   abandon the ops after it. *)
and parse_block_body p scope blk =
  match p.tok with
  | Rbrace | Block_id | Eof -> ()
  | _ -> (
      match p.engine with
      | None ->
          Graph.Block.append blk (parse_op p ~scope:(Some scope));
          parse_block_body p scope blk
      | Some e ->
          if not (Diag.Engine.limit_reached e) then begin
            let before = p.t_off in
            (match parse_op p ~scope:(Some scope) with
            | op -> Graph.Block.append blk op
            | exception Diag.Error_exn d ->
                Diag.Engine.emit e d;
                resync_op p 0;
                ensure_progress p ~before);
            parse_block_body p scope blk
          end)

and parse_region p : Graph.region =
  let region_start = loc p in
  Limits.enter_region p.budget ~loc:region_start;
  Fun.protect ~finally:(fun () -> Limits.leave_region p.budget) @@ fun () ->
  expect p Lbrace;
  let scope : block_scope = Hashtbl.create 4 in
  let region = Graph.Region.create () in
  (* Implicit entry block: operations before any ^label. *)
  (match p.tok with
  | Rbrace | Block_id -> ()
  | _ ->
      let entry = Graph.Block.create () in
      Graph.Region.add_block region entry;
      parse_block_body p scope entry);
  let rec labeled_blocks () =
    if p.tok == Block_id then begin
      let label = p.text in
      advance p;
      let blk = scope_block scope label in
      if blk.Graph.blk_parent <> None then
        Diag.raise_error ~loc:(loc p) "duplicate block label ^%s" label;
      (* Block arguments: (%a: ty, ...) *)
      if accept p Lparen then
        if not (accept p Rparen) then begin
          let rec args () =
            let name = expect_value_id p in
            expect p Colon;
            let ty = parse_ty p in
            let v = Graph.Block.add_arg blk ty in
            (* As with results: a forward placeholder is patched in place
               and substituted into the argument slot, keeping the
               identity earlier uses point at. *)
            let bound = define_value p name v in
            if bound != v then
              blk.Graph.blk_args.(Graph.Block.num_args blk - 1) <- bound;
            if accept p Comma then args () else expect p Rparen
          in
          args ()
        end;
      expect p Colon;
      Graph.Region.add_block region blk;
      parse_block_body p scope blk;
      labeled_blocks ()
    end
  in
  labeled_blocks ();
  expect p Rbrace;
  (* Every referenced block must have been defined (attached). *)
  Hashtbl.iter
    (fun name (b : Graph.block) ->
      if b.blk_parent = None then
        Diag.raise_error ~loc:region_start "use of undefined block ^%s" name)
    scope;
  region

and parse_custom_body p ~name ~od:_ ~(format : Opfmt.t) ~op_loc : Graph.op =
  let directives = Hashtbl.create 4 in
  let fixed = Hashtbl.create 4 in
  let group = ref None in
  let attrs = ref [] in
  List.iter
    (fun (item : Opfmt.item) ->
      match item with
      | Opfmt.Lit s ->
          let matches =
            match p.tok with
            | Ident -> String.equal p.text s
            | Value_id | Block_id | Symbol_id | Bang_id | Hash_id | Str
            | Int_lit | Hex_lit | Float_lit | Eof ->
                false
            | punct -> String.equal (punct_text punct) s
          in
          if matches then advance p
          else fail p "expected '%s' in '%s' custom syntax" s name
      | Opfmt.Operand_ref i -> Hashtbl.replace fixed i (parse_value_use p)
      | Opfmt.Operand_group _start ->
          let rec go acc =
            let v = parse_value_use p in
            if accept p Comma then go (v :: acc) else List.rev (v :: acc)
          in
          group := Some (if p.tok == Value_id then go [] else [])
      | Opfmt.Attr_ref key ->
          let a = parse_attr p in
          attrs := (key, a) :: !attrs
      | Opfmt.Ty_directive { index; _ } ->
          Hashtbl.replace directives index (parse_ty p))
    format.items;
  let directive i =
    match Hashtbl.find_opt directives i with
    | Some ty -> ty
    | None ->
        Diag.raise_error ~loc:op_loc
          "'%s': format did not bind type directive %d" name i
  in
  let rec eval_ty (e : Opfmt.ty_expr) : Attr.ty =
    match e with
    | Opfmt.Known ty -> ty
    | Opfmt.From_directive i -> directive i
    | Opfmt.Param_of (i, j) -> (
        match directive i with
        | Attr.Dynamic { params; _ } -> (
            match List.nth_opt params j with
            | Some (Attr.Type ty) -> ty
            | _ ->
                Diag.raise_error ~loc:op_loc
                  "'%s': type directive %d has no type parameter %d" name i j)
        | ty ->
            Diag.raise_error ~loc:op_loc
              "'%s': type %s has no parameters" name (Attr.ty_to_string ty))
    | Opfmt.Wrap { dialect; name = tname; params } ->
        Attr.dynamic ~dialect ~name:tname
          (List.map (fun e -> Attr.typ (eval_ty e)) params)
  in
  let num_fixed =
    List.length format.operand_tys - (match !group with Some _ -> 1 | None -> 0)
  in
  let fixed_operands =
    List.init num_fixed (fun i ->
        match Hashtbl.find_opt fixed i with
        | Some v -> v
        | None ->
            Diag.raise_error ~loc:op_loc
              "'%s': format did not bind operand %d" name i)
  in
  let operands = fixed_operands @ Option.value ~default:[] !group in
  (* Reconstruct operand types: set forward placeholders, check the rest. *)
  let operand_ty i =
    if i < num_fixed then List.nth format.operand_tys i
    else List.nth format.operand_tys num_fixed
  in
  List.iteri
    (fun i (v : Graph.value) ->
      let ty = eval_ty (operand_ty i) in
      match v.v_def with
      | Graph.Forward_ref _ -> v.v_ty <- ty
      | _ ->
          if not (Attr.equal_ty v.v_ty ty) then
            Diag.raise_error ~loc:op_loc
              "'%s': operand %d has type %s, expected %s" name i
              (Attr.ty_to_string v.v_ty) (Attr.ty_to_string ty))
    operands;
  let result_tys = List.map eval_ty format.result_tys in
  Graph.Op.create ~operands ~result_tys ~attrs:(List.rev !attrs) ~loc:op_loc
    name

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let finish p =
  match undefined p with
  | [] -> ()
  | f :: _ ->
      Diag.raise_error ~loc:f.f_loc "use of undefined value %%%s" f.f_name

(* Collect-mode counterpart of {!finish}: one located error per value that
   was used but never defined. *)
let finish_collect p engine =
  List.iter
    (fun f ->
      Diag.Engine.emit engine
        (Diag.error ~loc:f.f_loc "use of undefined value %%%s" f.f_name))
    (undefined p)

(* ------------------------------------------------------------------ *)
(* Parse sessions                                                      *)
(* ------------------------------------------------------------------ *)

(* Pull-based parsing: one fully-parsed top-level operation at a time, so
   a driver can parse → verify → print → release each op without the
   whole module ever being resident. [parse_ops] drains a session, so the
   two entry points share every step. *)
module Stream = struct
  (* A parsed op is only handed out once every forward reference that was
     pending when its parse finished has been resolved: a consumer
     verifying (or printing) the op immediately must see the same patched
     values it would see at the end of the module. Ops are queued FIFO,
     each with the number of forward placeholders created by then; the
     head is yielded once all of those have been defined. Well-formed
     modules with no top-level forward references (the overwhelmingly
     common case) keep the queue at length one. *)
  type pending = {
    pd_op : Graph.op;
    pd_forwards : int;  (** forwards created before [pd_op] finished *)
  }

  type session = {
    sp : t;
    s_engine : Diag.Engine.t option;
    s_queue : pending Queue.t;
    mutable s_eof : bool;  (** No more input will be consumed. *)
    mutable s_finished : bool;  (** End-of-parse bookkeeping done. *)
    mutable s_failed : Diag.t option;
        (** Fail-fast mode only: the error that ended the session. *)
  }

  let create ?file ?engine ?limits ?window ctx src =
    (* Session open can itself fail — payload over budget, injected fault —
       and must fail like everything else in a session: a sticky [Error]
       from [next], not an exception out of [create]. *)
    match
      Diag.protect_any (fun () ->
          create ?file ?engine ?limits ?window ctx src)
    with
    | Ok sp ->
        {
          sp;
          s_engine = engine;
          s_queue = Queue.create ();
          s_eof = false;
          s_finished = false;
          s_failed = None;
        }
    | Error d ->
        (match engine with
        | Some e -> Diag.Engine.emit e d
        | None -> ());
        (* A placeholder parser over nothing, with no file name so that it
           registers nothing over the real source. *)
        {
          sp =
            make ?engine
              ~budget:(Limits.budget Limits.unlimited)
              ctx (Sbuf.create ~file:"" "");
          s_engine = engine;
          s_queue = Queue.create ();
          s_eof = true;
          s_finished = true;
          s_failed = Some d;
        }

  let head_ready s =
    (not (Queue.is_empty s.s_queue))
    && resolved_prefix s.sp >= (Queue.peek s.s_queue).pd_forwards

  let enqueue s op =
    Queue.add { pd_op = op; pd_forwards = s.sp.n_fwds } s.s_queue

  (* Consume one top-level item in fail-soft mode: an op, or a failed op
     and the tokens up to the next sync point, or a stray brace. *)
  let step_collect s engine =
    let p = s.sp in
    if Diag.Engine.limit_reached engine then s.s_eof <- true
    else
      match p.tok with
      | Eof -> s.s_eof <- true
      | Rbrace ->
          (* Fallout of an earlier abandoned op — or a genuinely stray
             brace. Consume it either way so it cannot poison the ops
             after it. *)
          let brace_loc = loc p in
          advance p;
          if not (Diag.Engine.has_errors engine) then
            Diag.Engine.emit engine
              (Diag.error ~loc:brace_loc "unexpected '}'")
      | _ -> (
          let before = p.t_off in
          match parse_op p ~scope:None with
          | op -> enqueue s op
          | exception Diag.Error_exn d ->
              Diag.Engine.emit engine d;
              resync_op p 0;
              if p.t_off = before && p.tok != Eof then advance p)

  (* Consume one top-level op in fail-fast mode; raises on error. *)
  let step_failfast s =
    let p = s.sp in
    match p.tok with
    | Eof -> s.s_eof <- true
    | _ -> enqueue s (parse_op p ~scope:None)

  (* End-of-input bookkeeping, once: the undefined-value check of [finish]
     (fail-fast) or [finish_collect] (fail-soft). After it runs, any still-
     pending ops are handed out as they are. *)
  let finish_stream s =
    if not s.s_finished then begin
      s.s_finished <- true;
      match s.s_engine with
      | Some engine -> finish_collect s.sp engine
      | None -> finish s.sp
    end

  let rec pull s =
    if head_ready s then Some (Queue.pop s.s_queue).pd_op
    else if s.s_eof then begin
      finish_stream s;
      match Queue.take_opt s.s_queue with
      | Some pd -> Some pd.pd_op
      | None -> None
    end
    else begin
      (match s.s_engine with
      | Some engine -> step_collect s engine
      | None -> step_failfast s);
      pull s
    end

  let next s : (Graph.op option, Diag.t) result =
    match s.s_failed with
    | Some d -> Error d
    | None -> (
        match Diag.protect_any (fun () -> pull s) with
        | Ok _ as ok -> ok
        | Error d ->
            (* Fail-fast sessions die on their first error; fail-soft
               sessions only land here on a budget violation or an
               internal error escaping op recovery. *)
            (match s.s_engine with
            | Some engine -> Diag.Engine.emit engine d
            | None -> ());
            s.s_eof <- true;
            s.s_failed <- Some d;
            Error d)

  let release = Graph.release
end

(** Parse a sequence of top-level operations.

    Without [engine] the parse is fail-fast: the first error aborts and is
    returned as [Error]. With [engine] the parse is fail-soft: every
    lexing/parsing error (and every use of an undefined value) is emitted
    to the engine, parsing resumes at the next operation boundary, and the
    result is always [Ok] with the operations that parsed — or none, when
    a budget violation or internal error ended the parse. *)
let parse_ops ?file ?engine ?limits ?window ctx src :
    (Graph.op list, Diag.t) result =
  let s = Stream.create ?file ?engine ?limits ?window ctx src in
  let rec drain acc =
    match Stream.next s with
    | Ok (Some op) -> drain (op :: acc)
    | Ok None -> Ok (List.rev acc)
    | Error d -> if Option.is_none engine then Error d else Ok []
  in
  drain []

(** Parse exactly one operation. *)
let parse_op_string ?file ctx src =
  Diag.protect_any (fun () ->
      let p = create ?file ctx src in
      let op = parse_op p ~scope:None in
      if p.tok != Eof then fail p "trailing input after operation";
      finish p;
      op)

(** Parse a standalone type, e.g. ["!cmath.complex<f32>"]. *)
let parse_type_string ?file ctx src =
  Diag.protect_any (fun () ->
      let p = create ?file ctx src in
      let ty = parse_ty p in
      if p.tok != Eof then fail p "trailing input after type";
      ty)

(** Parse a standalone attribute. *)
let parse_attr_string ?file ctx src =
  Diag.protect_any (fun () ->
      let p = create ?file ctx src in
      let a = parse_attr p in
      if p.tok != Eof then fail p "trailing input after attribute";
      a)
