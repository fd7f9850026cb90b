(** Parser for the textual IR syntax produced by {!Printer}.

    Accepts both the generic form ["cmath.mul"(%a, %b) : (t, t) -> t] and,
    for operations registered with a declarative format, the custom pretty
    form [cmath.mul %a, %b : f32]. Forward references to values and blocks
    are allowed within a region (SSA dominance is not a parsing concern).

    The lexer is a cursor: the current token's kind, payload and span are
    mutable fields of the parser, so lexing a token allocates nothing and a
    {!Loc.t} is built only where one is stored or reported. Names and op
    signatures go through a per-domain table (see "The name table"), [%]
    names through a per-domain scope table (see "The scope table").

    There is one recovery mode. Lexer errors, failed ops and undefined
    values are emitted to the session's engine and parsing resumes at the
    next op; an entry point called without an engine runs on a private
    one and returns its first error ({!Diag.Engine.fail_fast}). *)

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
   op name, a plain string literal, a [!]/[#]/[@] name or a whole op
   signature — to one entry holding a shared copy of it. It is probed by
   hashing the source bytes in place, so a repeated spelling costs no
   allocation. An entry also caches what the parser asks of a spelling:
   the builtin type it names, its [dialect.name] split and, for a
   signature, what it parsed to.

   The cached types come from the domain's own uniquer shard ({!Attr}):
   the table is domain-local for the same reason. It is a cache with a
   fixed size: when it fills it is emptied, so a stream of distinct names
   costs at most a clear per [table_cap] of them. It is created on the
   first parse in a domain and lives as long as the domain, so per-chunk
   sessions do not allocate it again. *)

(* The types of an op signature [(…) -> (…)]. A memoized pair is shared
   by every op parsed from it: {!Graph.Op.create_prebuilt} keeps neither
   array. *)
type signature = { operand_tys : Attr.ty array; result_tys : Attr.ty array }

type entry = {
  spelling : string;
  builtin : Attr.ty option;  (** the builtin type it names as an identifier *)
  dotted : (string * string) option;  (** split at its first dot *)
  mutable memo : signature option;
      (** for a signature: what a full parse of exactly its bytes returned,
          recorded only when no lexer error was recovered on the way *)
  mutable op_sig : Graph.op_sig;
      (** for an op name or signature: the entry it last gave an op *)
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
    dotted = split_at_dot s; memo = None; op_sig = Graph.no_sig }

(* Marks a free slot; never handed out. A string not in the table has it. *)
let vacant = { (make_entry "") with builtin = None; dotted = None }

let table_slots = 8192 (* a power of two *)
let table_cap = table_slots / 2

(* Longer spellings bypass the table: a fresh copy is made each time. *)
let max_spelling = 256

type table = {
  slots : entry array;  (** open addressing, linear probing *)
  mutable used : int;
  mutable sig_hits : int;
  mutable sig_misses : int;
}

let table_key : table Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { slots = Array.make table_slots vacant; used = 0; sig_hits = 0;
        sig_misses = 0 })

(* FNV-1a over [src.[i .. stop-1]], a word at a time while one fits, then
   a final mix that folds the high bits, which a product only reaches
   from below, into the low ones a table index keeps. *)
let rec fnv src i stop h =
  if i + 8 <= stop then
    fnv src (i + 8) stop
      ((h lxor Int64.to_int (String.get_int64_le src i)) * 0x100000001b3)
  else if i < stop then
    fnv src (i + 1) stop
      ((h lxor Char.code (String.unsafe_get src i)) * 0x100000001b3)
  else
    let h = (h lxor (h lsr 32)) * 0x2545f4914f6cdd1d in
    h lxor (h lsr 29)

let hash_span src off stop = fnv src off stop 0x811c9dc5

(* Whether [a.[i .. i+n-1]] and [b.[j .. j+n-1]] hold the same bytes. *)
let rec same_bytes a i b j n =
  if n >= 8 then
    Int64.equal (String.get_int64_le a i) (String.get_int64_le b j)
    && same_bytes a (i + 8) b (j + 8) (n - 8)
  else
    n = 0
    || String.unsafe_get a i = String.unsafe_get b j
       && same_bytes a (i + 1) b (j + 1) (n - 1)

(* The slot holding [src.[off .. off+len-1]], or the free slot where it
   belongs. *)
let rec probe slots src off len mask i =
  let e = Array.unsafe_get slots i in
  if e == vacant
     || (String.length e.spelling = len && same_bytes e.spelling 0 src off len)
  then i
  else probe slots src off len mask ((i + 1) land mask)

let intern_with make tbl src off stop =
  let len = stop - off in
  if len > max_spelling then make (String.sub src off len)
  else
    let mask = table_slots - 1 in
    let home = hash_span src off stop land mask in
    let i = probe tbl.slots src off len mask home in
    let e = Array.unsafe_get tbl.slots i in
    if e != vacant then e
    else begin
      let e = make (String.sub src off len) in
      if tbl.used >= table_cap then begin
        Array.fill tbl.slots 0 table_slots vacant;
        tbl.used <- 0;
        tbl.slots.(home) <- e
      end
      else tbl.slots.(i) <- e;
      tbl.used <- tbl.used + 1;
      e
    end

let intern_span = intern_with make_entry

(* A signature, which starts with [(]: no identifier or name shares its
   bytes, so its entry needs no builtin type or dotted split. *)
let intern_memo_key =
  intern_with (fun s -> { vacant with spelling = s })

let name_table_cap = table_cap
let name_table_entries () = (Domain.DLS.get table_key).used

let signature_memo_stats () =
  let t = Domain.DLS.get table_key in
  (t.sig_hits, t.sig_misses)

(* One past the closing quote of a string whose body starts at [i], or -1
   when a newline or [stop] comes first. *)
let rec string_end src stop i =
  if i >= stop then -1
  else
    match String.unsafe_get src i with
    | '"' -> i + 1
    | '\n' -> -1
    | '\\' ->
        if i + 1 < stop && String.unsafe_get src (i + 1) <> '\n' then
          string_end src stop (i + 2)
        else -1
    | _ -> string_end src stop (i + 1)

let is_comment src stop i =
  i + 1 < stop && String.unsafe_get src (i + 1) = '/'
  && String.unsafe_get src i = '/'

(* One past the [)] that balances the [(] at [i], or -1. Strings are
   skipped; the scan gives up at a newline, a brace, [//] or [stop]. *)
let rec paren_end src stop i depth =
  if i >= stop then -1
  else
    match String.unsafe_get src i with
    | '(' -> paren_end src stop (i + 1) (depth + 1)
    | ')' -> if depth = 1 then i + 1 else paren_end src stop (i + 1) (depth - 1)
    | '"' ->
        let j = string_end src stop (i + 1) in
        if j < 0 then -1 else paren_end src stop j depth
    | '\n' | '{' | '}' -> -1
    | '/' when is_comment src stop i -> -1
    | _ -> paren_end src stop (i + 1) depth

let rec skip_blanks src stop i =
  if i < stop
     && (match String.unsafe_get src i with
        | ' ' | '\t' | '\r' -> true
        | _ -> false)
  then skip_blanks src stop (i + 1)
  else i

(* One past the last non-blank byte from [i] on before a newline, a brace,
   [//] or the window end [limit], or [last] when there is none, or -1
   when the scan reaches a cap [stop] short of [limit] first: the bytes
   after the cap might continue the last token. *)
let rec line_end src stop limit i last =
  if i >= stop then if stop = limit then last else -1
  else
    match String.unsafe_get src i with
    | '\n' | '{' | '}' -> last
    | '/' when is_comment src stop i -> last
    | ' ' | '\t' | '\r' -> line_end src stop limit (i + 1) last
    | '"' ->
        let j = string_end src stop (i + 1) in
        if j < 0 then -1 else line_end src stop limit j j
    | _ -> line_end src stop limit (i + 1) (i + 1)

(* The end of the op signature [(…) -> (…)] or [(…) -> ty] whose [(] is at
   [i], scanning no further than [stop] (at most the window end [limit]),
   or -1. A bare result type runs to the end of its line, up to a brace or
   a comment, trailing blanks left out. Every end is a token boundary. The
   span is only a candidate: a signature is memoized only when a full
   parse consumed exactly it. *)
let signature_end src stop limit i =
  let j = paren_end src stop i 0 in
  let j = if j < 0 then stop else skip_blanks src stop j in
  if j + 1 >= stop || String.unsafe_get src j <> '-'
     || String.unsafe_get src (j + 1) <> '>'
  then -1
  else
    let k = skip_blanks src stop (j + 2) in
    if k >= stop then -1
    else if String.unsafe_get src k = '(' then paren_end src stop k 0
    else
      let e = line_end src stop limit k k in
      if e = k then -1 else e

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
(* The scope table                                                     *)
(* ------------------------------------------------------------------ *)

(* [%name]s are looked up by their bytes in the source. A slot holds the
   offset of one occurrence of the name, the stamp of the scope that bound
   it, and the binding, so a name costs no allocation.

   Scoping is MLIR's. A definition made inside a region is dropped when
   the region closes; a forward placeholder is bound at depth 0, so it
   stays visible to the enclosing scopes until it is defined. Nothing is
   erased on close: each scope opened gets a fresh stamp, larger than
   those of the scopes around it, and a binding is live only while its
   stamp is one of the open scopes'. Dead slots are reused by later
   bindings and dropped when the table is rebuilt, which it is when three
   quarters of its slots are taken.

   The table is per domain, like the name table, and kept across
   sessions: a session claims it and empties it in place when it ends.
   Arrays over 256 words go straight to the major heap, so allocating one
   per [--split-input-file] chunk would cost memory. *)

type 'a scope = {
  mutable keys : int array;
      (** per slot: the name's offset (-1 when empty) and the stamp of the
          scope that bound it *)
  mutable vals : 'a array;
  mutable taken : int;  (** non-empty slots *)
  dummy : 'a;
}

type scopes = {
  values : Graph.value scope;
  mutable src : string;  (** the session's source ... *)
  mutable limit : int;  (** ... and the end of its window *)
  mutable stamps : int array;
      (** the stamp of the open scope at each depth, increasing with it *)
  mutable depth : int;
  mutable stamp : int;  (** the last stamp handed out *)
  mutable in_use : bool;  (** a parse session holds it *)
}

let value_slots = 1024 (* a power of two *)

let new_scope slots dummy =
  { keys = Array.make (2 * slots) (-1); vals = Array.make slots dummy;
    taken = 0; dummy }

let new_scopes slots =
  { values = new_scope slots (Graph.Value.forward_ref ""); src = "";
    limit = 0; stamps = Array.make 8 0; depth = 0; stamp = 0;
    in_use = false }

(* Whether [st] is among [stamps.(lo .. hi)], which increase. *)
let rec stamp_in stamps st lo hi =
  lo <= hi
  &&
  let mid = (lo + hi) / 2 in
  let m = Array.unsafe_get stamps mid in
  m = st
  || if m < st then stamp_in stamps st (mid + 1) hi
     else stamp_in stamps st lo (mid - 1)

(* Whether the binding in slot [i] of [keys] was made in a scope that is
   still open. Other slots are dead. *)
let live_at sc keys i =
  stamp_in sc.stamps (Array.unsafe_get keys ((2 * i) + 1)) 0 sc.depth

let live sc s i = live_at sc s.keys i

(* A slot keeps no length: a name is the run of identifier bytes at its
   offset, cut at the window end as the lexer cuts it. *)
let name_ends sc i =
  i >= sc.limit || not (Sbuf.is_ident_char (String.unsafe_get sc.src i))

let rec name_end sc i = if name_ends sc i then i else name_end sc (i + 1)

(* The slot of the live binding of [src.[off .. off+len-1]], or [-j-1]
   where [j] is the slot a new binding of it goes to: the first dead slot
   on its probe chain, else the empty slot ending it. *)
let rec find sc s off len mask i free =
  let o = Array.unsafe_get s.keys (2 * i) in
  if o < 0 then -(if free >= 0 then free else i) - 1
  else if not (live sc s i) then
    let free = if free >= 0 then free else i in
    find sc s off len mask ((i + 1) land mask) free
  else if o + len <= sc.limit && same_bytes sc.src o sc.src off len && name_ends sc (o + len)
  then i
  else find sc s off len mask ((i + 1) land mask) free

let lookup sc s off len =
  let mask = Array.length s.vals - 1 in
  find sc s off len mask (hash_span sc.src off (off + len) land mask) (-1)

let rec empty keys mask j =
  if keys.(2 * j) < 0 then j else empty keys mask ((j + 1) land mask)

(* Drop the dead slots: the live bindings move to a table of the same
   size, or twice the size when they fill three eighths of this one. *)
let rebuild sc s =
  let n = Array.length s.vals and keys = s.keys and vals = s.vals in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if keys.(2 * i) >= 0 && live_at sc keys i then incr count
  done;
  let slots = if 8 * !count >= 3 * n then 2 * n else n in
  s.keys <- Array.make (2 * slots) (-1);
  s.vals <- Array.make slots s.dummy;
  s.taken <- !count;
  let mask = slots - 1 in
  for i = 0 to n - 1 do
    let off = keys.(2 * i) in
    if off >= 0 && live_at sc keys i then begin
      let h = hash_span sc.src off (name_end sc off) in
      let j = empty s.keys mask (h land mask) in
      s.keys.(2 * j) <- off;
      s.keys.((2 * j) + 1) <- keys.((2 * i) + 1);
      s.vals.(j) <- vals.(i)
    end
  done

(* Bind the name at [off] to [v] in the open scope at [depth], in the slot
   [lookup] returned for it. *)
let bind sc s slot off depth v =
  let i = if slot < 0 then -slot - 1 else slot in
  if s.keys.(2 * i) < 0 then s.taken <- s.taken + 1;
  s.keys.(2 * i) <- off;
  s.keys.((2 * i) + 1) <- sc.stamps.(depth);
  s.vals.(i) <- v;
  if 4 * s.taken > 3 * Array.length s.vals then rebuild sc s

let open_scope sc =
  sc.depth <- sc.depth + 1;
  sc.stamp <- sc.stamp + 1;
  if sc.depth = Array.length sc.stamps then
    sc.stamps <- Array.append sc.stamps (Array.make sc.depth 0);
  sc.stamps.(sc.depth) <- sc.stamp

(* The scopes a new session starts with: the domain's when they are
   free, else fresh ones that become the domain's. So a session that is
   never finished keeps its own and costs later sessions one allocation,
   not one each. *)
let scopes_key : scopes ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      ref (new_scopes value_slots))

let claim_scopes src limit =
  let slot = Domain.DLS.get scopes_key in
  if !slot.in_use then
    slot := new_scopes value_slots;
  let sc = !slot in
  sc.in_use <- true;
  sc.src <- src;
  sc.limit <- limit;
  sc

(* Empty a table at the end of a session, in place: it holds on to no
   value of the session, and the next one allocates nothing. A table a
   large session grew is replaced by a small one. *)
let reset s slots =
  if Array.length s.vals > slots then begin
    s.keys <- Array.make (2 * slots) (-1);
    s.vals <- Array.make slots s.dummy
  end
  else if s.taken > 0 then begin
    Array.fill s.keys 0 (2 * slots) (-1);
    Array.fill s.vals 0 slots s.dummy
  end;
  s.taken <- 0

let release_scopes sc =
  if sc.in_use then begin
    reset sc.values value_slots;
    sc.src <- "";
    sc.in_use <- false
  end

(* Scopes for a parser that binds no name (a standalone type or
   attribute); never claimed, never written. *)
let no_scopes = new_scopes 1

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
  engine : Diag.Engine.t;  (** where recovered errors go *)
  budget : Limits.budget;
      (** resource accounting; blown budgets raise {!Diag.Fatal_exn}, which
          deliberately escapes the fail-soft recovery below *)
  (* The current token. *)
  mutable tok : token;
  mutable text : string;
      (** the name of an id or ident token, the body of a string *)
  mutable entry : entry;  (** name-table entry of an ident or a name *)
  mutable sig_spelling : entry;
      (** name-table entry of the last op signature, if it has one *)
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
  scopes : scopes;  (** the [%name] bindings *)
  mutable labels : (string, Graph.block) Hashtbl.t option;
      (** the current region's, made at its first label *)
  mutable names_at : int array;
      (** the result names of the ops being parsed, a stack of [%]
          offset, end offset, line and column *)
  mutable names_top : int;
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
  p.entry <- vacant;
  if close >= 0 then begin
    if close - body <= max_spelling then
      p.entry <- intern_span p.names src body close;
    p.text <-
      (if p.entry != vacant then p.entry.spelling
       else String.sub src body (close - body));
    Sbuf.jump buf (close + 1)
  end
  else begin
    Sbuf.advance buf;
    p.text <- Sbuf.string_literal buf (start_pos p)
  end;
  Str

(* A [%] name is looked up by its span in the scope table, a [^] label
   by the string {!label_block} makes: no payload is made. *)
let lex_id p tok =
  let buf = p.buf in
  Sbuf.advance buf;
  Sbuf.skip_ident buf;
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
       | '!' -> lex_name p ~skip:true Bang_id
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

(* Lex the next token; lexer errors go to the engine and lexing is retried
   (every lexer raise leaves the buffer advanced). *)
let rec next_token p =
  match lex p with
  | () -> ()
  | exception Diag.Error_exn d ->
      Diag.Engine.emit p.engine d;
      p.lex_errors <- p.lex_errors + 1;
      next_token p

(* A parser before its first token: it reads as [Eof]. *)
let make ~engine ~budget ~scopes ctx buf =
  { ctx; buf; names = Domain.DLS.get table_key; engine; budget; tok = Eof;
    text = ""; entry = vacant; sig_spelling = vacant; num = 0L; fnum = 0.;
    t_off = 0; t_line = 0; t_col = 0; e_off = 0; e_line = 0; e_col = 0;
    last_end = 0; lex_errors = 0; scopes; labels = None; names_at = [||];
    names_top = 0; fwds = [||]; n_fwds = 0; fwd_low = 0 }

(* [scoped:false] for a parse that binds no name, which then claims no
   scope table. *)
let create ?(file = "<string>") ~engine ?(limits = Limits.unlimited) ?window
    ?(scoped = true) ctx src =
  let budget = Limits.budget limits in
  let w = match window with Some w -> w | None -> Sbuf.whole src in
  let buf = Sbuf.create ~file ~window:w src in
  Limits.check_payload budget
    ~loc:(Loc.point (Sbuf.pos buf))
    (w.Sbuf.stop - w.Sbuf.start);
  Failpoints.hit "parse";
  let scopes =
    if scoped then claim_scopes src (Sbuf.limit buf) else no_scopes
  in
  let p = make ~engine ~budget ~scopes ctx buf in
  (match next_token p with
  | () -> ()
  | exception e ->
      release_scopes p.scopes;
      raise e);
  p

let advance p =
  p.last_end <- p.e_off;
  next_token p

(* The name of the current [%] or [^] token, without its sigil. *)
let id_text p =
  String.sub (Sbuf.src p.buf) (p.t_off + 1) (p.e_off - p.t_off - 1)

let pp_token p ppf () =
  match p.tok with
  | Value_id -> Fmt.pf ppf "%%%s" (id_text p)
  | Block_id -> Fmt.pf ppf "^%s" (id_text p)
  | Symbol_id -> Fmt.pf ppf "@%s" p.text
  | Bang_id -> Fmt.pf ppf "!%s" p.text
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
      Attr.tuple (Array.to_list (parse_ty_array_until p Greater))
  | Ident -> (
      match p.entry.builtin with
      | Some ty ->
          advance p;
          ty
      | None -> fail p "unknown builtin type '%s'" p.text)
  | Bang_id -> parse_dynamic_ty p
  | Lparen ->
      let { operand_tys; result_tys } = parse_function_tys p in
      Attr.function_ty ~inputs:(Array.to_list operand_tys)
        ~outputs:(Array.to_list result_tys)
  | _ -> fail p "expected a type"

(* [(…) -> (…)] or [(…) -> ty], at its [(]. *)
and parse_function_tys p =
  advance p;
  let operand_tys = parse_ty_array_until p Rparen in
  expect p Arrow;
  let result_tys =
    if accept p Lparen then parse_ty_array_until p Rparen
    else [| parse_ty p |]
  in
  { operand_tys; result_tys }

and parse_dynamic_ty p =
  let e = p.entry in
  advance p;
  let dialect, name = dialect_name p e in
  let params = if accept p Less then parse_attr_list_until p Greater else [] in
  Attr.dynamic ~dialect ~name params

and parse_ty_array_until p closer =
  if accept p closer then [||] else parse_ty_array p closer 0

(* The types up to [closer], the [i]th first: the array is made once its
   length is known, with no list on the way. *)
and parse_ty_array p closer i =
  let ty = parse_ty p in
  let tys =
    if accept p Comma then parse_ty_array p closer (i + 1)
    else (
      expect p closer;
      Array.make (i + 1) ty)
  in
  Array.unsafe_set tys i ty;
  tys

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
  | Lbrace -> Attr.dict (parse_attr_dict p)
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

(* [{k = v, ...}], at its [{]: an op's attributes or a dictionary
   attribute. A repeated key is an error at the [{]. *)
and parse_attr_dict p =
  let off = p.t_off and line = p.t_line and col = p.t_col in
  advance p;
  let entries = if accept p Rbrace then [] else parse_dict_entries p [] in
  (match Attr.duplicate_key entries with
  | Some k ->
      Diag.raise_error
        ~loc:
          (Loc.span (pos_at p off line col)
             (pos_at p (off + 1) line (col + 1)))
        "%s" (Attr.duplicate_key_message k)
  | None -> ());
  entries

and parse_dict_entries p acc =
  let key = expect_ident p in
  expect p Equal;
  let v = parse_attr p in
  if accept p Comma then parse_dict_entries p ((key, v) :: acc)
  else (
    expect p Rbrace;
    List.rev ((key, v) :: acc))

(* An op signature, at its [(]: the signature memo. Parsing types reads
   no context state, so the same bytes always parse to the same types: a
   hit jumps the cursor past them (no newline inside, so only the column
   moves) and shares the cached arrays. A span is recorded only when a
   full parse consumed exactly it without a recovered lexer error. *)
let parse_signature p =
  if p.tok != Lparen then fail p "expected '('";
  let buf = p.buf in
  let src = Sbuf.src buf and limit = Sbuf.limit buf in
  let stop =
    signature_end src (min limit (p.t_off + max_spelling)) limit p.t_off
  in
  p.sig_spelling <- vacant;
  if stop < 0 then parse_function_tys p
  else
    let key = intern_memo_key p.names src p.t_off stop in
    let t = p.names in
    p.sig_spelling <- key;
    match key.memo with
    | Some s ->
        t.sig_hits <- t.sig_hits + 1;
        Sbuf.jump buf stop;
        p.last_end <- stop;
        next_token p;
        s
    | None ->
        t.sig_misses <- t.sig_misses + 1;
        let lex_errors = p.lex_errors in
        let s = parse_function_tys p in
        if p.last_end = stop && p.lex_errors = lex_errors then
          key.memo <- Some s;
        s

(* The op just built takes the entry its name's or its signature's
   spelling last gave, if that one has its signature, else
   {!Context.sig_entry}'s. A placeholder name has many signatures and a
   signature many names, so one of the two mostly has it. *)
let with_sig p (name : entry) (sg : entry) (op : Graph.op) =
  let e =
    if Graph.Op.has_sig op name.op_sig then name.op_sig
    else if Graph.Op.has_sig op sg.op_sig then sg.op_sig
    else Context.sig_entry p.ctx op
  in
  if name != vacant && name.op_sig != e then name.op_sig <- e;
  if sg != vacant && sg.op_sig != e then sg.op_sig <- e;
  op.op_sig <- e;
  op

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
    definition, remembering where that first use was for error reporting.
    The placeholder is bound at depth 0: it stays visible after the region
    of its use closes. *)
let parse_value_use p =
  if p.tok != Value_id then fail p "expected SSA value name";
  let sc = p.scopes in
  let off = p.t_off + 1 and len = p.e_off - p.t_off - 1 in
  let slot = lookup sc sc.values off len in
  if slot >= 0 then begin
    advance p;
    Array.unsafe_get sc.values.vals slot
  end
  else begin
    let name = String.sub sc.src off len in
    let v = Graph.Value.forward_ref name in
    add_forward p { f_name = name; f_loc = loc p; f_val = v };
    bind sc sc.values slot off 0 v;
    advance p;
    v
  end

(** Bind the name spelled from the [%] at [off] to [stop] (on [line], at
    [col]) to a definition in the current scope. A forward placeholder is
    patched in place (keeping use identity) and returned; a name that is
    already defined and visible is an error there. *)
let define_value p ~off ~stop ~line ~col (fresh : Graph.value) =
  let sc = p.scopes in
  let slot = lookup sc sc.values (off + 1) (stop - off - 1) in
  let bound =
    if slot < 0 then fresh
    else
      match sc.values.vals.(slot) with
      | { v_def = Graph.Forward_ref _; _ } as placeholder ->
          placeholder.v_ty <- fresh.v_ty;
          placeholder.v_def <- fresh.v_def;
          placeholder
      | _ ->
          Diag.raise_error
            ~loc:
              (Loc.span (pos_at p off line col)
                 (pos_at p stop line (col + stop - off)))
            "redefinition of SSA value '%s'"
            (String.sub sc.src off (stop - off))
  in
  bind sc sc.values slot (off + 1) sc.depth bound;
  bound

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

(* How deep inside its own structure an op that starts at [i] failed at
   [stop]: the braces and parens opened in [src.[i .. stop-1]] and not
   closed, from the outermost open brace in, strings and comments skipped.
   [open_] lists them innermost first, [true] for a brace. Parens left
   open outside any brace are not counted: they more likely end a
   truncated line than a structure the op goes on with. *)
let rec nesting src stop i open_ =
  if i >= stop then
    let rec from_brace = function
      | true :: _ as inner -> List.length inner
      | false :: outer -> from_brace outer
      | [] -> 0
    in
    from_brace (List.rev open_)
  else
    match String.unsafe_get src i with
    | '{' -> nesting src stop (i + 1) (true :: open_)
    | '(' -> nesting src stop (i + 1) (false :: open_)
    | '}' | ')' ->
        nesting src stop (i + 1) (match open_ with [] -> [] | _ :: o -> o)
    | '"' ->
        let j = string_end src stop (i + 1) in
        nesting src stop (if j < 0 then i + 1 else j) open_
    | '/' when is_comment src stop i ->
        let j =
          match String.index_from_opt src i '\n' with
          | Some j -> j
          | None -> stop
        in
        nesting src stop j open_
    | _ -> nesting src stop (i + 1) open_

(* Skip tokens after a failed operation until something that can start the
   next one, a closing [}] of the enclosing region (left unconsumed for the
   region parser), or end of file. Brace/paren nesting is tracked so tokens
   inside the abandoned op's sub-structure are not mistaken for sync
   points; it starts at the nesting the op failed in. *)
let resync_op p ~start =
  let rec go depth =
    match p.tok with
    | Eof -> ()
    | Rbrace when depth = 0 -> ()
    | _ when depth = 0 && at_op_start p -> ()
    | Lbrace | Lparen ->
        advance p;
        go (depth + 1)
    | Rbrace | Rparen ->
        advance p;
        go (max 0 (depth - 1))
    | _ ->
        advance p;
        go depth
  in
  go (nesting (Sbuf.src p.buf) p.t_off start [])

(* After an op failed and recovery resynchronized: never loop without
   consuming. *)
let ensure_progress p ~before =
  if p.t_off = before then
    match p.tok with Eof | Rbrace | Block_id -> () | _ -> advance p

(* The block the [^label] token names in the current region, created on
   first sight. *)
let label_block p =
  let labels =
    match p.labels with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 4 in
        p.labels <- Some t;
        t
  in
  let off = p.t_off + 1 in
  let name = String.sub (Sbuf.src p.buf) off (p.e_off - off) in
  match Hashtbl.find_opt labels name with
  | Some b -> (name, b)
  | None ->
      let b = Graph.Block.create () in
      Hashtbl.replace labels name b;
      (name, b)

(* Push the result names [%a, %b, ...] onto [names_at]; their number. *)
let rec push_names p n =
  if p.tok != Value_id then fail p "expected SSA value name";
  let i = p.names_top in
  if i + 4 > Array.length p.names_at then begin
    let grown = Array.make (max 16 (2 * i)) 0 in
    Array.blit p.names_at 0 grown 0 i;
    p.names_at <- grown
  end;
  let a = p.names_at in
  a.(i) <- p.t_off;
  a.(i + 1) <- p.e_off;
  a.(i + 2) <- p.t_line;
  a.(i + 3) <- p.t_col;
  p.names_top <- i + 4;
  advance p;
  if accept p Comma then push_names p (n + 1) else n + 1

(* The operands up to [)], the [i]th first: as {!parse_ty_array}. *)
let rec parse_operands p i =
  let v = parse_value_use p in
  let vs =
    if accept p Comma then parse_operands p (i + 1)
    else (
      expect p Rparen;
      Array.make (i + 1) v)
  in
  Array.unsafe_set vs i v;
  vs

(* Set (for forwards) or check operand types. *)
let bind_operand_tys ~name ~op_loc (operands : Graph.value array) tys =
  for i = 0 to Array.length operands - 1 do
    let v = Array.unsafe_get operands i and ty = Array.unsafe_get tys i in
    match v.Graph.v_def with
    | Graph.Forward_ref _ -> v.v_ty <- ty
    | _ ->
        if not (Attr.equal_ty v.v_ty ty) then
          Diag.raise_error ~loc:op_loc
            "'%s': operand has type %s but was declared with %s" name
            (Attr.ty_to_string v.v_ty) (Attr.ty_to_string ty)
  done

let rec parse_op p : Graph.op =
  let op_loc = loc p in
  (* Budget accounting happens before anything is consumed; a blown budget
     raises [Fatal_exn], which skips op-boundary recovery entirely. *)
  Limits.tick_op p.budget ~loc:op_loc;
  (* Optional result list: %a, %b = ... *)
  let base = p.names_top in
  let n_names =
    if p.tok == Value_id then (
      let n = push_names p 0 in
      expect p Equal;
      n)
    else 0
  in
  let op =
    match p.tok with
    | Str ->
        let name = p.text and entry = p.entry in
        advance p;
        parse_generic_body p ~name ~entry ~op_loc
    | Ident when Option.is_some p.entry.dotted -> (
        let name = p.text in
        advance p;
        match Context.lookup_op p.ctx name with
        | Some { od_format = Some f; _ } ->
            parse_custom_body p ~name ~format:f ~op_loc
        | Some _ ->
            fail p
              "operation '%s' has no declarative format; use the generic \
               \"%s\"(...) form"
              name name
        | None -> fail p "unknown operation '%s' in custom form" name)
    | _ -> fail p "expected an operation"
  in
  if n_names > 0 then begin
    if n_names <> Graph.Op.num_results op then
      Diag.raise_error ~loc:op_loc
        "'%s' produces %d results but %d names were bound" op.Graph.op_name
        (Graph.Op.num_results op) n_names;
    (* Forward placeholders are patched in place and substituted for the
       fresh result values, keeping the identity earlier uses point at. *)
    for i = 0 to n_names - 1 do
      let a = p.names_at and j = base + (4 * i) in
      op.Graph.op_results.(i) <-
        define_value p ~off:a.(j) ~stop:a.(j + 1) ~line:a.(j + 2)
          ~col:a.(j + 3) op.Graph.op_results.(i)
    done
  end;
  p.names_top <- base;
  op

and parse_generic_body p ~name ~entry ~op_loc : Graph.op =
  expect p Lparen;
  let operands = if accept p Rparen then [||] else parse_operands p 0 in
  let successors =
    if accept p Lbrack then (
      if p.scopes.depth = 0 then
        Diag.raise_error ~loc:op_loc
          "successors are only allowed inside a region";
      let rec go acc =
        if p.tok != Block_id then begin
          advance p;
          fail p "expected block name"
        end;
        let _, blk = label_block p in
        advance p;
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
  let attrs = if p.tok == Lbrace then parse_attr_dict p else [] in
  expect p Colon;
  let { operand_tys; result_tys } = parse_signature p in
  if Array.length operand_tys <> Array.length operands then
    Diag.raise_error ~loc:op_loc
      "'%s': %d operands but %d operand types" name (Array.length operands)
      (Array.length operand_tys);
  bind_operand_tys ~name ~op_loc operands operand_tys;
  (* Every type and attribute parsed is already canonical in this domain's
     uniquer shard. *)
  with_sig p entry p.sig_spelling
    (Graph.Op.create_prebuilt ~operands ~result_tys ~attrs ~regions
       ~successors ~loc:op_loc ~entry:Graph.no_sig name)

(* Operations up to the end of a block. Each operation is parsed under its
   own protection, so one bad op in a block does not abandon the ops after
   it. *)
and parse_block_body p blk =
  match p.tok with
  | Rbrace | Block_id | Eof -> ()
  | _ ->
      if not (Diag.Engine.limit_reached p.engine) then begin
        let before = p.t_off and names_top = p.names_top in
        (match parse_op p with
        | op -> Graph.Block.append blk op
        | exception Diag.Error_exn d ->
            Diag.Engine.emit p.engine d;
            p.names_top <- names_top;
            resync_op p ~start:before;
            ensure_progress p ~before);
        parse_block_body p blk
      end

(* A region is a scope: its definitions and labels are dropped when it
   closes, also when it fails. *)
and parse_region p : Graph.region =
  let region_start = loc p in
  Limits.enter_region p.budget ~loc:region_start;
  let sc = p.scopes in
  let depth = sc.depth and labels = p.labels in
  Fun.protect ~finally:(fun () ->
      Limits.leave_region p.budget;
      sc.depth <- depth;
      p.labels <- labels)
  @@ fun () ->
  expect p Lbrace;
  open_scope sc;
  p.labels <- None;
  let region = Graph.Region.create () in
  (* Implicit entry block: operations before any ^label. *)
  (match p.tok with
  | Rbrace | Block_id -> ()
  | _ ->
      let entry = Graph.Block.create () in
      Graph.Region.add_block region entry;
      parse_block_body p entry);
  let rec labeled_blocks () =
    if p.tok == Block_id then begin
      let label, blk = label_block p in
      advance p;
      if blk.Graph.blk_parent <> None then
        Diag.raise_error ~loc:(loc p) "duplicate block label ^%s" label;
      (* Block arguments: (%a: ty, ...) *)
      if accept p Lparen then
        if not (accept p Rparen) then begin
          let rec args () =
            if p.tok != Value_id then fail p "expected SSA value name";
            let off = p.t_off and stop = p.e_off in
            let line = p.t_line and col = p.t_col in
            advance p;
            expect p Colon;
            let ty = parse_ty p in
            let v = Graph.Block.add_arg blk ty in
            (* As with results: a forward placeholder is patched in place
               and substituted into the argument slot, keeping the
               identity earlier uses point at. *)
            let bound = define_value p ~off ~stop ~line ~col v in
            if bound != v then
              blk.Graph.blk_args.(Graph.Block.num_args blk - 1) <- bound;
            if accept p Comma then args () else expect p Rparen
          in
          args ()
        end;
      expect p Colon;
      Graph.Region.add_block region blk;
      parse_block_body p blk;
      labeled_blocks ()
    end
  in
  labeled_blocks ();
  expect p Rbrace;
  (* Every referenced block must have been defined (attached). *)
  Option.iter
    (Hashtbl.iter (fun name (b : Graph.block) ->
         if b.blk_parent = None then
           Diag.raise_error ~loc:region_start "use of undefined block ^%s" name))
    p.labels;
  region

and parse_custom_body p ~name ~(format : Opfmt.t) ~op_loc : Graph.op =
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

(* One located error per value that was used but never defined. *)
let finish p =
  List.iter
    (fun f ->
      Diag.Engine.emit p.engine
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
     values it would see at the end of the module. An op parsed with
     nothing queued ahead and nothing unresolved goes straight out; the
     others are queued FIFO, each with the number of forward placeholders
     created by then, and the head is yielded once all of those have been
     defined. *)
  type pending = {
    pd_op : Graph.op;
    pd_forwards : int;  (** forwards created before [pd_op] finished *)
  }

  type session = {
    sp : t;
    s_result :
      (Graph.op option, Diag.t) result -> (Graph.op option, Diag.t) result;
        (** the caller's answer ({!Diag.Engine.fail_fast}) *)
    s_queue : pending Queue.t;
    mutable s_eof : bool;  (** No more input will be consumed. *)
    mutable s_finished : bool;  (** End-of-parse bookkeeping done. *)
    mutable s_failed : Diag.t option;
        (** the budget violation or internal error that ended the session *)
  }

  let create ?file ?engine ?limits ?window ctx src =
    let engine, s_result = Diag.Engine.fail_fast engine in
    (* Session open can itself fail — payload over budget, injected fault —
       and must fail like everything else in a session: a sticky [Error]
       from [next], not an exception out of [create]. *)
    match
      Diag.protect_any (fun () ->
          create ?file ~engine ?limits ?window ctx src)
    with
    | Ok sp ->
        { sp; s_result; s_queue = Queue.create (); s_eof = false;
          s_finished = false; s_failed = None }
    | Error d ->
        Diag.Engine.emit engine d;
        (* A placeholder parser over nothing, with no file name so that it
           registers nothing over the real source. *)
        {
          sp =
            make ~engine
              ~budget:(Limits.budget Limits.unlimited)
              ~scopes:no_scopes ctx (Sbuf.create ~file:"" "");
          s_result;
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

  (* End-of-input bookkeeping, once: the undefined-value check. After it
     runs, any still-pending ops are handed out as they are. *)
  let finish_stream s =
    if not s.s_finished then begin
      s.s_finished <- true;
      release_scopes s.sp.scopes;
      finish s.sp
    end

  (* The next op to hand out. Each step consumes one top-level item: an
     op, a failed op and the tokens up to the next sync point, or a stray
     brace. Once the engine's error cap is reached nothing more is
     consumed and the session is finished at once, so a caller that stops
     at its error leaves no scope table claimed. *)
  let rec pull s =
    let p = s.sp in
    if (not s.s_eof) && Diag.Engine.limit_reached p.engine then begin
      s.s_eof <- true;
      finish_stream s
    end;
    if head_ready s then Some (Queue.pop s.s_queue).pd_op
    else if s.s_eof then begin
      finish_stream s;
      match Queue.take_opt s.s_queue with
      | Some pd -> Some pd.pd_op
      | None -> None
    end
    else
      match p.tok with
      | Eof ->
          s.s_eof <- true;
          pull s
      | Rbrace ->
          (* Fallout of an earlier abandoned op — or a genuinely stray
             brace. Consume it either way so it cannot poison the ops
             after it. *)
          let brace_loc = loc p in
          advance p;
          if not (Diag.Engine.has_errors p.engine) then
            Diag.Engine.emit p.engine
              (Diag.error ~loc:brace_loc "unexpected '}'");
          pull s
      | _ -> (
          let before = p.t_off in
          p.names_top <- 0;
          match parse_op p with
          | op
            when Queue.is_empty s.s_queue
                 && resolved_prefix p >= p.n_fwds
                 && not (Diag.Engine.limit_reached p.engine) ->
              Some op
          | op ->
              enqueue s op;
              pull s
          | exception Diag.Error_exn d ->
              Diag.Engine.emit p.engine d;
              resync_op p ~start:before;
              if p.t_off = before && p.tok != Eof then advance p;
              pull s)

  let next s : (Graph.op option, Diag.t) result =
    match s.s_failed with
    | Some d -> s.s_result (Error d)
    | None -> (
        (* [match ... with exception] rather than [protect_any]: this runs
           once per op and the thunk closure would be its only envelope.
           A budget violation or an internal error escaping op recovery
           lands in the cold arm, which re-raises into [protect_any] for
           the standard conversion and ends the session. *)
        match pull s with
        | op -> s.s_result (Ok op)
        | exception e ->
            let d =
              match Diag.protect_any (fun () -> raise e) with
              | Ok () -> assert false
              | Error d -> d
            in
            Diag.Engine.emit s.sp.engine d;
            release_scopes s.sp.scopes;
            s.s_eof <- true;
            s.s_failed <- Some d;
            s.s_result (Error d))

  let release = Graph.release
end

(** Parse a sequence of top-level operations: every error is emitted to
    the engine and the result is [Ok] with the operations that parsed — or
    none, when a budget violation or internal error ended the parse.
    Without [engine], the first error is returned as [Error]. *)
let parse_ops ?file ?engine ?limits ?window ctx src :
    (Graph.op list, Diag.t) result =
  let engine, result = Diag.Engine.fail_fast engine in
  let s = Stream.create ?file ~engine ?limits ?window ctx src in
  let rec drain acc =
    match Stream.next s with
    | Ok (Some op) -> drain (op :: acc)
    | Ok None -> Ok (List.rev acc)
    | Error _ -> Ok []
  in
  result (drain [])

(* A standalone parse, which returns its first error. *)
let standalone ?file ~scoped ctx src f =
  let engine, result = Diag.Engine.fail_fast None in
  result
    (Diag.protect_any (fun () ->
         let p = create ?file ~engine ~scoped ctx src in
         Fun.protect ~finally:(fun () -> release_scopes p.scopes) @@ fun () ->
         f p))

(** Parse exactly one operation. *)
let parse_op_string ?file ctx src =
  standalone ?file ~scoped:true ctx src (fun p ->
      let op = parse_op p in
      if p.tok != Eof then fail p "trailing input after operation";
      finish p;
      op)

(** Parse a standalone type, e.g. ["!cmath.complex<f32>"]. *)
let parse_type_string ?file ctx src =
  standalone ?file ~scoped:false ctx src (fun p ->
      let ty = parse_ty p in
      if p.tok != Eof then fail p "trailing input after type";
      ty)

(** Parse a standalone attribute. *)
let parse_attr_string ?file ctx src =
  standalone ?file ~scoped:false ctx src (fun p ->
      let a = parse_attr p in
      if p.tok != Eof then fail p "trailing input after attribute";
      a)
