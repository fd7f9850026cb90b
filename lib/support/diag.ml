(** Structured diagnostics.

    Every user-facing failure in the IRDL frontend, the IR parser and the
    generated verifiers is reported as a {!t}: a severity, a message, a source
    location, and optional notes. Internal invariant violations use
    [invalid_arg]/[assert] instead — but {!protect_any} converts even those
    into diagnostics at public entry points, so no input can crash a caller.

    {!Engine} upgrades single-shot reporting into a fail-soft pipeline: an
    engine collects every diagnostic of a run (with severity counts and an
    error cap), forwards them to pluggable handlers, and can serialize the
    whole run as JSON. {!Sources} keeps the text of every lexed buffer so
    diagnostics can be rendered with caret/underline source snippets. *)

type severity = Error | Warning | Note

type t = {
  severity : severity;
  loc : Loc.t;
  message : string;
  notes : (Loc.t * string) list;
  code : string option;
      (** Machine-readable classification ([resource_exhausted],
          [deadline_exceeded], [injected_fault], ...). [None] for ordinary
          parse/verify diagnostics, whose rendering must stay byte-stable. *)
}

exception Error_exn of t

exception Fatal_exn of t
(** A diagnostic that must abort the whole session, not just the current
    op: budget violations (see {!Limits}) raise this so that fail-soft
    recovery — which catches {!Error_exn} at op boundaries and resumes —
    cannot swallow them and keep consuming the very resource that ran out.
    Only {!protect_any} (the outermost guard of public entry points)
    converts it to [Error]. *)

let make ?(severity = Error) ?(loc = Loc.unknown) ?(notes = []) ?code message =
  { severity; loc; message; notes; code }

let error ?loc ?notes ?code fmt =
  Fmt.kstr (fun message -> make ~severity:Error ?loc ?notes ?code message) fmt

let warning ?loc ?notes fmt =
  Fmt.kstr (fun message -> make ~severity:Warning ?loc ?notes message) fmt

let errorf ?loc ?notes ?code fmt =
  Fmt.kstr
    (fun message -> Result.Error (make ~severity:Error ?loc ?notes ?code message))
    fmt

(** Raise the diagnostic as an exception; callers at API boundaries catch
    [Error_exn] and convert to [result]. *)
let raise_error ?loc ?notes fmt =
  Fmt.kstr
    (fun message -> raise (Error_exn (make ~severity:Error ?loc ?notes message)))
    fmt

let raise_fatal ?loc ?notes ?code fmt =
  Fmt.kstr
    (fun message ->
      raise (Fatal_exn (make ~severity:Error ?loc ?notes ?code message)))
    fmt

let pp_severity ppf = function
  | Error -> Fmt.string ppf "error"
  | Warning -> Fmt.string ppf "warning"
  | Note -> Fmt.string ppf "note"

let pp ppf t =
  if Loc.is_unknown t.loc then
    Fmt.pf ppf "%a: %s" pp_severity t.severity t.message
  else Fmt.pf ppf "%a: %a: %s" Loc.pp t.loc pp_severity t.severity t.message;
  List.iter
    (fun (loc, note) ->
      if Loc.is_unknown loc then Fmt.pf ppf "@\n  note: %s" note
      else Fmt.pf ppf "@\n  %a: note: %s" Loc.pp loc note)
    t.notes

let to_string t = Fmt.str "%a" pp t

(** Run [f], converting a raised [Error_exn] into [Error diag]. *)
let protect f = try Ok (f ()) with Error_exn d -> Error d

(** Like {!protect}, but additionally converts any other exception — a stray
    [Failure], [Invalid_argument], [Not_found], even a failed assertion —
    into an "internal error" diagnostic. Out-of-memory is re-raised. Public
    entry points use this so no input, however malformed, can crash a
    caller. *)
let protect_any ?(loc = Loc.unknown) f =
  try Ok (f ()) with
  | Error_exn d | Fatal_exn d -> Error d
  | Failpoints.Injected name ->
      Error
        (make ~loc ~code:"injected_fault"
           ("internal error: injected fault at failpoint '" ^ name ^ "'"))
  | Out_of_memory -> raise Out_of_memory
  | Stack_overflow ->
      Error (make ~loc "internal error: stack overflow (input nested too deeply)")
  | exn -> Error (make ~loc ("internal error: " ^ Printexc.to_string exn))

let get_ok = function
  | Ok v -> v
  | Error d -> raise (Error_exn d)

(* ------------------------------------------------------------------ *)
(* Source-buffer registry                                              *)
(* ------------------------------------------------------------------ *)

module Sources = struct
  (* Keyed by file name; {!Sbuf.create} registers every source it lexes,
     so by the time a diagnostic is rendered the text it points into is
     available here. Re-registering the very same string keeps the entry
     (and its line index): every chunk of a split file shares one. A
     different string under the same name overwrites (the common
     "<string>" scratch name), making rendering best-effort by design.

     The registry is domain-local, so concurrent server requests that use
     the same file name never see each other's payloads. A worker inherits
     the spawning domain's registrations (dialect files, the split input)
     from a {!snapshot}: an immutable copy shared by reference, consulted
     after the worker's own table. *)
  type entry = {
    src : string;
    line_starts : int array Atomic.t;
        (** offset of each line's first byte; [[||]] until first needed.
            Entries are shared between domains through snapshots, and two
            domains racing to build it write equal arrays. *)
  }

  type snapshot = (string, entry) Hashtbl.t

  type registry = {
    own : (string, entry) Hashtbl.t;
    mutable inherited : snapshot;
  }

  let key : registry Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        { own = Hashtbl.create 16; inherited = Hashtbl.create 1 })

  let registry () = Domain.DLS.get key

  let find file =
    let r = registry () in
    match Hashtbl.find_opt r.own file with
    | Some _ as e -> e
    | None -> Hashtbl.find_opt r.inherited file

  let register ~file src =
    if file <> "" then
      match find file with
      | Some e when e.src == src -> ()
      | _ ->
          Hashtbl.replace (registry ()).own file
            { src; line_starts = Atomic.make [||] }

  let lookup file = Option.map (fun e -> e.src) (find file)
  let drop file = Hashtbl.remove (registry ()).own file

  let clear () =
    let r = registry () in
    Hashtbl.reset r.own;
    r.inherited <- Hashtbl.create 1

  let snapshot () =
    let r = registry () in
    let s = Hashtbl.copy r.inherited in
    Hashtbl.iter (Hashtbl.replace s) r.own;
    s

  let preload s = (registry ()).inherited <- s

  let line_starts e =
    match Atomic.get e.line_starts with
    | [||] ->
        let a = Memscan.line_starts e.src in
        Atomic.set e.line_starts a;
        a
    | a -> a

  (* [start, stop) byte offsets of 1-based line [n] of [file]'s source. *)
  let line file n =
    match find file with
    | None -> None
    | Some e ->
        let starts = line_starts e in
        let lines = Array.length starts in
        if n < 1 || n > lines then None
        else
          let stop =
            if n < lines then starts.(n) - 1 else String.length e.src
          in
          Some (e.src, starts.(n - 1), stop)
end

(* ------------------------------------------------------------------ *)
(* Snippet rendering                                                   *)
(* ------------------------------------------------------------------ *)

(** Render the source line under [loc] with a [^~~~] caret span, when the
    file's text is available in {!Sources}. Renders nothing otherwise. *)
let pp_snippet ppf (loc : Loc.t) =
  if not (Loc.is_unknown loc) then
    match Sources.line loc.start_pos.file loc.start_pos.line with
    | None -> ()
    | Some (src, start, stop) ->
        let line =
          String.map
            (fun c -> if c = '\t' then ' ' else c)
            (String.sub src start (stop - start))
        in
        let gutter = string_of_int loc.start_pos.line in
        let col = max 1 (min loc.start_pos.col (String.length line + 1)) in
        let width =
          if
            loc.end_pos.line = loc.start_pos.line
            && loc.end_pos.col > loc.start_pos.col
          then loc.end_pos.col - loc.start_pos.col
          else 1
        in
        let width = max 1 (min width (String.length line - col + 2)) in
        Fmt.pf ppf "@\n  %s | %s@\n  %s | %s^%s" gutter line
          (String.make (String.length gutter) ' ')
          (String.make (col - 1) ' ')
          (String.make (width - 1) '~')

(** Like {!pp}, with a rendered source snippet under the header line and
    under every note whose location is known. *)
let pp_rendered ppf t =
  if Loc.is_unknown t.loc then
    Fmt.pf ppf "%a: %s" pp_severity t.severity t.message
  else Fmt.pf ppf "%a: %a: %s" Loc.pp t.loc pp_severity t.severity t.message;
  pp_snippet ppf t.loc;
  List.iter
    (fun (loc, note) ->
      if Loc.is_unknown loc then Fmt.pf ppf "@\n  note: %s" note
      else Fmt.pf ppf "@\n  %a: note: %s" Loc.pp loc note;
      pp_snippet ppf loc)
    t.notes

(* ------------------------------------------------------------------ *)
(* JSON serialization                                                  *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let loc_json (loc : Loc.t) =
  if Loc.is_unknown loc then {|"file": null, "line": 0, "col": 0|}
  else
    Printf.sprintf {|"file": "%s", "line": %d, "col": %d|}
      (json_escape loc.start_pos.file)
      loc.start_pos.line loc.start_pos.col

let to_json t =
  let notes =
    t.notes
    |> List.map (fun (loc, note) ->
           Printf.sprintf {|{ %s, "message": "%s" }|} (loc_json loc)
             (json_escape note))
    |> String.concat ", "
  in
  (* [code] is emitted only when present, so the serialization of every
     pre-existing diagnostic stays byte-identical. *)
  let code =
    match t.code with
    | None -> ""
    | Some c -> Printf.sprintf {| "code": "%s",|} (json_escape c)
  in
  Printf.sprintf
    {|{ "severity": "%s",%s %s, "message": "%s", "notes": [%s] }|}
    (Fmt.str "%a" pp_severity t.severity)
    code (loc_json t.loc) (json_escape t.message) notes

(* ------------------------------------------------------------------ *)
(* Diagnostic engine                                                   *)
(* ------------------------------------------------------------------ *)

type diag = t

module Engine = struct
  type handler = diag -> unit

  type t = {
    mutable diags_rev : diag list;
    mutable n_errors : int;
    mutable n_warnings : int;
    mutable n_notes : int;
    mutable n_suppressed : int;
    max_errors : int;  (** 0 = unlimited *)
    mutable handlers : handler list;
  }

  let create ?(max_errors = 0) () =
    {
      diags_rev = [];
      n_errors = 0;
      n_warnings = 0;
      n_notes = 0;
      n_suppressed = 0;
      max_errors;
      handlers = [];
    }

  let add_handler e h = e.handlers <- e.handlers @ [ h ]

  let limit_reached e = e.max_errors > 0 && e.n_errors >= e.max_errors

  (* Record a diagnostic and bump the severity counts, without the
     handlers. Errors past the [max_errors] cap are counted as suppressed
     and not recorded. *)
  let record e (d : diag) =
    if d.severity = Error && limit_reached e then
      e.n_suppressed <- e.n_suppressed + 1
    else begin
      e.diags_rev <- d :: e.diags_rev;
      match d.severity with
      | Error -> e.n_errors <- e.n_errors + 1
      | Warning -> e.n_warnings <- e.n_warnings + 1
      | Note -> e.n_notes <- e.n_notes + 1
    end

  (** {!record}, then every handler, unless the diagnostic was
      suppressed. *)
  let emit e (d : diag) =
    let kept = not (d.severity = Error && limit_reached e) in
    record e d;
    if kept then List.iter (fun h -> h d) e.handlers

  let add_suppressed e n = e.n_suppressed <- e.n_suppressed + n
  let diagnostics e = List.rev e.diags_rev
  let error_count e = e.n_errors
  let warning_count e = e.n_warnings
  let note_count e = e.n_notes
  let suppressed_count e = e.n_suppressed
  let has_errors e = e.n_errors > 0

  (* The last error in [diags_rev] is the first one emitted. *)
  let first_error e =
    List.fold_left
      (fun first (d : diag) -> if d.severity = Error then Some d else first)
      None e.diags_rev

  let fail_fast = function
    | Some e -> (e, Fun.id)
    | None ->
        let e = create ~max_errors:1 () in
        (e, fun r -> match first_error e with Some d -> Result.Error d | None -> r)

  (** A handler printing each diagnostic to [ppf], one per line, with
      source snippets unless [snippets:false]. *)
  let printer ?(snippets = true) ppf : handler =
   fun d -> Fmt.pf ppf "%a@." (if snippets then pp_rendered else pp) d

  let to_json e =
    let diags =
      diagnostics e |> List.map to_json |> String.concat ",\n    "
    in
    Printf.sprintf
      {|{
  "errors": %d,
  "warnings": %d,
  "notes": %d,
  "suppressed": %d,
  "diagnostics": [
    %s
  ]
}|}
      e.n_errors e.n_warnings e.n_notes e.n_suppressed diags
end
