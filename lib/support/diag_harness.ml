(** The MLIR-style diagnostic test harness.

    Two building blocks used by [irdl-opt]:

    - {!split_input} cuts a source file at [// -----] separator lines into
      independent chunks. A chunk is a window of the unchanged source (its
      byte range and first line number), so every diagnostic keeps its
      original line number and file offset without copying any text.
    - {!scan_expectations}/{!check} implement [--verify-diagnostics]:
      [// expected-error@<offset> {{substring}}] annotations (and the
      [expected-warning]/[expected-note] variants) are matched against the
      diagnostics a run actually produced, reporting both unexpected
      diagnostics and annotations nothing fulfilled.

    One walk over the source does both ({!scan}). *)

let rec same_from src i sub k m =
  k = m
  || String.unsafe_get src (i + k) = String.unsafe_get sub k
     && same_from src i sub (k + 1) m

(* Whether [sub] occurs in [src] at offset [i]. *)
let matches_at src i sub =
  let m = String.length sub in
  i >= 0 && i + m <= String.length src && same_from src i sub 0 m

(* Characters [String.trim] strips. *)
let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

(* Whether the line [ls, le) of [src] is a [// -----] separator, blanks
   around it allowed: [String.trim line = "// -----"] without the copy. *)
let is_separator src ls le =
  let ls = ref ls and le = ref le in
  while !ls < !le && is_blank src.[!ls] do incr ls done;
  while !le > !ls && is_blank src.[!le - 1] do decr le done;
  !le - !ls = 8 && matches_at src !ls "// -----"

(* ------------------------------------------------------------------ *)
(* Expected-diagnostic annotations                                     *)
(* ------------------------------------------------------------------ *)

type expectation = {
  exp_file : string;
  exp_line : int;  (** line the diagnostic must be located on *)
  exp_decl_line : int;  (** line of the annotation comment itself *)
  exp_severity : Diag.severity;
  exp_substr : string;
  mutable exp_matched : bool;
}

(* The first index [i >= from] at which [sub] occurs in [s] and ends by
   [stop], or -1. Only a position holding [sub]'s first byte is compared
   further. *)
let rec index_from s stop sub m i =
  if i + m > stop then -1
  else if
    String.unsafe_get s i = String.unsafe_get sub 0 && same_from s i sub 1 m
  then i
  else index_from s stop sub m (i + 1)

(* [index_from] as an option; an empty [sub] never occurs. *)
let find_from s ~stop sub from =
  let m = String.length sub in
  if m = 0 then None
  else
    match index_from s (min stop (String.length s)) sub m (max 0 from) with
    | -1 -> None
    | i -> Some i

let contains s sub = find_from s ~stop:(String.length s) sub 0 <> None

(* Parse the "@+2" / "@-1" / "@above" / "@below" offset suffix starting at
   [i], in a line ending at [stop]; no suffix means "this very line".
   Returns (line-delta, index after the suffix), or None when the suffix
   is malformed. *)
let parse_offset line ~stop:n i =
  if i >= n || line.[i] <> '@' then Some (0, i)
  else
    let i = i + 1 in
    let word_at w delta =
      let m = String.length w in
      if i + m <= n && matches_at line i w then Some (delta, i + m) else None
    in
    match word_at "above" (-1) with
    | Some _ as r -> r
    | None -> (
        match word_at "below" 1 with
        | Some _ as r -> r
        | None ->
            if i < n && (line.[i] = '+' || line.[i] = '-') then begin
              let sign = if line.[i] = '+' then 1 else -1 in
              let j = ref (i + 1) in
              let v = ref 0 in
              let digits = ref 0 in
              while
                !j < n && line.[!j] >= '0' && line.[!j] <= '9' && !digits < 6
              do
                v := (!v * 10) + (Char.code line.[!j] - Char.code '0');
                incr j;
                incr digits
              done;
              if !digits = 0 then None else Some (sign * !v, !j)
            end
            else None)

let keywords =
  [
    ("expected-error", Diag.Error);
    ("expected-warning", Diag.Warning);
    ("expected-note", Diag.Note);
  ]

(* All annotations on the line [start, stop) of [line]. An annotation only
   counts inside a [//] comment; malformed ones (bad offset, missing
   [{{..}}]) are reported as harness errors rather than silently ignored. *)
let scan_line ~file ~lineno line ~start ~stop =
  match find_from line ~stop "//" start with
  | None -> ([], [])
  | Some comment_at ->
      let expectations = ref [] and errors = ref [] in
      List.iter
        (fun (kw, severity) ->
          let rec scan from =
            match find_from line ~stop kw from with
            | None -> ()
            | Some i when i < comment_at -> scan (i + 1)
            | Some i -> (
                let after = i + String.length kw in
                match parse_offset line ~stop after with
                | None ->
                    errors :=
                      Diag.error
                        "%s:%d: malformed offset after '%s' (expected @+N, \
                         @-N, @above or @below)"
                        file lineno kw
                      :: !errors;
                    scan (after + 1)
                | Some (delta, j) -> (
                    let j = ref j in
                    while !j < stop && (line.[!j] = ' ' || line.[!j] = '\t') do
                      incr j
                    done;
                    match find_from line ~stop "{{" !j with
                    | Some b when b = !j -> (
                        match find_from line ~stop "}}" (b + 2) with
                        | None ->
                            errors :=
                              Diag.error "%s:%d: unterminated {{...}} after '%s'"
                                file lineno kw
                              :: !errors;
                            scan (after + 1)
                        | Some e ->
                            expectations :=
                              {
                                exp_file = file;
                                exp_line = lineno + delta;
                                exp_decl_line = lineno;
                                exp_severity = severity;
                                exp_substr = String.sub line (b + 2) (e - b - 2);
                                exp_matched = false;
                              }
                              :: !expectations;
                            scan (e + 2))
                    | _ ->
                        errors :=
                          Diag.error "%s:%d: expected {{...}} after '%s'" file
                            lineno kw
                          :: !errors;
                        scan (after + 1)))
          in
          scan comment_at)
        keywords;
      (List.rev !expectations, List.rev !errors)

(* The one walk over a source. Both a separator and an annotation sit on
   a line with a [//], so only such a line is looked at: it is a separator
   or it is scanned for annotations. The walk jumps from one [/] to the
   next with [Memscan.index] and counts the newlines it jumped over with
   [Memscan.count], so the bytes between two [//] lines cost no OCaml
   loop. A chunk spans the lines between two separators, without the
   newline that ends its last line: that newline belongs to the separator
   after it, so a diagnostic at the end of a chunk sits on the chunk's
   last line. Without any separator the whole source is one chunk. *)
let scan ~file src =
  let len = String.length src in
  let chunks = ref [] and start = ref 0 and first_line = ref 1 in
  let expectations = ref [] and errors = ref [] in
  (* The line start at or before [i], no earlier than [floor]. *)
  let rec line_start floor i =
    if i > floor && String.unsafe_get src (i - 1) <> '\n' then
      line_start floor (i - 1)
    else i
  in
  (* Newlines are counted up to [at], a line start on line [lineno]; the
     next [/] is searched for from [pos]. *)
  let rec go ~pos ~at lineno =
    match Memscan.index src '/' ~from:pos ~stop:len with
    | -1 -> ()
    | i when i + 1 < len && String.unsafe_get src (i + 1) = '/' ->
        let lineno = lineno + Memscan.count src '\n' ~from:at ~stop:i in
        let ls = line_start at i in
        let le =
          match Memscan.index src '\n' ~from:i ~stop:len with
          | -1 -> len
          | j -> j
        in
        (if is_separator src ls le then begin
           let stop = if ls > !start then ls - 1 else !start in
           chunks :=
             { Sbuf.start = !start; stop; first_line = !first_line }
             :: !chunks;
           start := min len (le + 1);
           first_line := lineno + 1
         end
         else
           let exps, errs = scan_line ~file ~lineno src ~start:ls ~stop:le in
           expectations := List.rev_append exps !expectations;
           errors := List.rev_append errs !errors);
        if le < len then go ~pos:(le + 1) ~at:(le + 1) (lineno + 1)
    | i -> go ~pos:(i + 1) ~at lineno
  in
  go ~pos:0 ~at:0 1;
  let windows =
    List.rev
      ({ Sbuf.start = !start; stop = len; first_line = !first_line }
      :: !chunks)
  in
  (windows, (List.rev !expectations, List.rev !errors))

let split_input src = fst (scan ~file:"" src)
let scan_expectations ~file src = snd (scan ~file src)

let loc_of_line file line : Loc.t =
  let pos = { Loc.file; line; col = 1; offset = 0 } in
  { start_pos = pos; end_pos = pos }

(* A diagnostic plus its notes, flattened into matchable
   (severity, loc, message) triples. *)
let flatten (d : Diag.t) =
  (d.severity, d.loc, d.message)
  :: List.map (fun (loc, msg) -> (Diag.Note, loc, msg)) d.notes

(** Match [diags] against [expectations] (mutating [exp_matched]).
    Returns harness failures: one error per unexpected error/warning and
    one per annotation that nothing fulfilled. Notes attached to matched or
    unmatched diagnostics are lenient — an un-annotated note is not a
    failure, only an [expected-note] annotation without a note is. *)
let check ~expectations diags =
  let failures = ref [] in
  (* Expectations by the (file, line) they must match, in input order. *)
  let by_line = Hashtbl.create (List.length expectations) in
  List.iter
    (fun e ->
      let k = (e.exp_file, e.exp_line) in
      Hashtbl.replace by_line k
        (e :: Option.value ~default:[] (Hashtbl.find_opt by_line k)))
    (List.rev expectations);
  let try_match (sev, (loc : Loc.t), message) =
    match
      List.find_opt
        (fun e ->
          (not e.exp_matched)
          && e.exp_severity = sev
          && contains message e.exp_substr)
        (Option.value ~default:[]
           (Hashtbl.find_opt by_line (loc.start_pos.file, loc.start_pos.line)))
    with
    | Some e ->
        e.exp_matched <- true;
        true
    | None -> false
  in
  List.iter
    (fun d ->
      List.iter
        (fun ((sev, loc, message) as item) ->
          if not (try_match item) && sev <> Diag.Note then
            failures :=
              Diag.error ~loc "unexpected %s: %s"
                (Fmt.str "%a" Diag.pp_severity sev)
                message
              :: !failures)
        (flatten d))
    diags;
  List.iter
    (fun e ->
      if not e.exp_matched then
        failures :=
          Diag.error
            ~loc:(loc_of_line e.exp_file e.exp_decl_line)
            "expected %s {{%s}} was not produced%s"
            (Fmt.str "%a" Diag.pp_severity e.exp_severity)
            e.exp_substr
            (if e.exp_line = e.exp_decl_line then ""
             else Printf.sprintf " at line %d" e.exp_line)
          :: !failures)
    expectations;
  List.rev !failures
