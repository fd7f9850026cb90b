(* The unified frontend: every input — file, stdin, batch entry — becomes a
   [Source.payload] classified by magic sniffing (text or bytecode), every
   output flows through a [Sink] (textual printer or bytecode emitter), and
   [Stream] erases the text/bytecode distinction behind the pull-based
   session API of [Ir.Parser.Stream]. [run] is the one chunk driver over
   them, for every caller and both formats. *)

open Irdl_support
module Graph = Irdl_ir.Graph
module Context = Irdl_ir.Context
module Printer = Irdl_ir.Printer
module Ir_parser = Irdl_ir.Parser
module Resolve = Irdl_core.Resolve
module Native = Irdl_core.Native

module Source = struct
  type payload = Text of string * Sbuf.window | Binary of string

  let classify s = if Bytecode.sniff s then Binary s else Text (s, Sbuf.whole s)

  let contents = function
    | Text (s, { start; stop; _ }) ->
        if start = 0 && stop = String.length s then s
        else String.sub s start (stop - start)
    | Binary s -> s

  let is_binary = function Binary _ -> true | Text _ -> false

  (* Classify a channel that cannot seek (stdin): peek just the magic-sized
     prefix, then push it back by prepending — never [seek_in]. *)
  let of_channel ic =
    let mlen = String.length Bytecode.magic in
    let buf = Bytes.create mlen in
    let rec fill off =
      if off = mlen then off
      else
        match input ic buf off (mlen - off) with
        | 0 -> off
        | n -> fill (off + n)
    in
    let got = fill 0 in
    let prefix = Bytes.sub_string buf 0 got in
    classify (prefix ^ In_channel.input_all ic)

  let read path =
    if path = "-" then begin
      In_channel.set_binary_mode stdin true;
      of_channel stdin
    end
    else
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> classify (really_input_string ic (in_channel_length ic)))

  (* The unit-of-work split: '// -----' chunks for text, as windows of the
     one source string, and document boundaries for bytecode. Without
     [split] the payload is one chunk — a multi-document bytecode buffer
     still reads fine, the documents are just processed as one unit. *)
  let chunks ~split payload =
    match payload with
    | Text (s, _) when split ->
        List.map (fun w -> Text (s, w)) (Diag_harness.split_input s)
    | Text _ -> [ payload ]
    | Binary b ->
        if split then
          List.map (fun c -> Binary c) (Bytecode.split_documents b)
        else [ payload ]
end

module Sink = struct
  (* Text output is kept as pages: once the working buffer reaches
     [page_size] after a push, its contents become an immutable page and
     the buffer is reused. Output is never joined into one string, so it
     costs no doubling chain and no output-sized copy. *)
  let page_size = 65536

  type t =
    | Text_sink of {
        printer : Printer.t;
        buf : Buffer.t;
        mutable pages : string list;  (** newest first *)
        mutable first : bool;
      }
    | Binary_sink of { w : Bytecode.Write.t; mutable err : Diag.t option }

  let text ?generic ctx =
    Text_sink
      {
        printer = Printer.create ?generic ctx;
        buf = Buffer.create 256;
        pages = [];
        first = true;
      }

  let bytecode () = Binary_sink { w = Bytecode.Write.create (); err = None }
  let is_binary = function Binary_sink _ -> true | Text_sink _ -> false

  let push t op =
    match t with
    | Text_sink s ->
        if s.first then s.first <- false else Buffer.add_char s.buf '\n';
        Printer.add_op s.printer s.buf op;
        if Buffer.length s.buf >= page_size then begin
          s.pages <- Buffer.contents s.buf :: s.pages;
          Buffer.clear s.buf
        end
    | Binary_sink s ->
        if s.err = None then (
          match
            Diag.protect_any (fun () -> Bytecode.Write.push_op s.w op)
          with
          | Ok () -> ()
          | Error d -> s.err <- Some d)

  let close_binary w = function
    | Some d -> Error d
    | None -> Bytecode.Write.close w

  let close_pages = function
    | Text_sink s ->
        Ok
          (List.rev
             (if Buffer.length s.buf = 0 then s.pages
              else Buffer.contents s.buf :: s.pages))
    | Binary_sink s ->
        Result.map (fun blob -> [ blob ]) (close_binary s.w s.err)

  let close = function
    | Text_sink { pages = []; buf; _ } -> Ok (Buffer.contents buf)
    | Text_sink _ as t -> Result.map (String.concat "") (close_pages t)
    | Binary_sink s -> close_binary s.w s.err
end

module Stream = struct
  type t =
    | Text_stream of Ir_parser.Stream.session
    | Binary_stream of Bytecode.Stream.session

  let create ?file ?engine ?limits ctx payload =
    match payload with
    | Source.Text (s, window) ->
        Text_stream
          (Ir_parser.Stream.create ?file ?engine ?limits ~window ctx s)
    | Source.Binary b ->
        Binary_stream (Bytecode.Stream.create ?file ?engine ?limits ctx b)

  let next = function
    | Text_stream s -> Ir_parser.Stream.next s
    | Binary_stream s -> Bytecode.Stream.next s

  let release = Graph.release
end

type outcome = {
  parse_failed : bool;
  verify_failed : bool;
  output : string list option;
}

(* The diagnostic [Diag.protect_any] makes of an exception. *)
let caught e =
  match Diag.protect_any (fun () -> raise e) with
  | Ok _ -> assert false
  | Error d -> d

(* The drain is one tail-recursive loop per chunk: per op it allocates only
   the cons of a non-empty verify result and, with a pipeline, the cons
   that keeps the op. An exception out of verifying an op or out of the
   pipeline (an injected fault, a bug) becomes its diagnostic and counts
   as a verify failure. The chunk is one failpoint document. *)
let run ?file ~engine ?limits ~verify ?sink ?pipeline ctx payload =
  Failpoints.in_document @@ fun () ->
  let e0 = Diag.Engine.error_count engine in
  let session = Stream.create ?file ~engine ?limits ctx payload in
  let keep = Option.is_some pipeline in
  let rec drain vdiags kept =
    match Stream.next session with
    | Ok None | Error _ -> (vdiags, kept)
    | Ok (Some op) ->
        let vdiags =
          if not verify then vdiags
          else
            (* [match ... with exception]: a [protect_any] thunk would be
               one more allocation per op. *)
            match Irdl_ir.Verifier.verify_all ctx op with
            | [] -> vdiags
            | ds -> ds :: vdiags
            | exception e -> [ caught e ] :: vdiags
        in
        if keep then drain vdiags (op :: kept)
        else begin
          (match sink with Some s -> Sink.push s op | None -> ());
          Stream.release op;
          drain vdiags kept
        end
  in
  let vdiags, kept = drain [] [] in
  let clean = Diag.Engine.error_count engine = e0 in
  let outcome ~verify_failed output =
    { parse_failed = not clean; verify_failed; output }
  in
  (* Output only while no error was added; an emit error counts as a
     verify failure. *)
  let close ~verify_failed =
    match sink with
    | Some s when Diag.Engine.error_count engine = e0 -> (
        match Sink.close_pages s with
        | Ok pages -> outcome ~verify_failed (Some pages)
        | Error d ->
            Diag.Engine.emit engine d;
            outcome ~verify_failed:true None)
    | _ -> outcome ~verify_failed None
  in
  if not clean then outcome ~verify_failed:false None
  else
    match Irdl_ir.Verifier.merge_diags (List.concat (List.rev vdiags)) with
    | _ :: _ as ds ->
        List.iter (Diag.Engine.emit engine) ds;
        outcome ~verify_failed:true None
    | [] -> (
        match pipeline with
        | None -> close ~verify_failed:false
        | Some f ->
            let ops = List.rev kept in
            let ds = try f ops with e -> [ caught e ] in
            List.iter (Diag.Engine.emit engine) ds;
            (match sink with
            | Some s when Diag.Engine.error_count engine = e0 ->
                List.iter (Sink.push s) ops
            | _ -> ());
            close ~verify_failed:(ds <> []))

let load_dialects ?native ?file ?engine ctx payload =
  Irdl_core.Irdl.load_with ?native ?engine ctx (fun engine ->
      match payload with
      | Source.Text _ ->
          Irdl_core.Irdl.read ?file ~engine (Source.contents payload)
      | Source.Binary b ->
          Result.value ~default:[] (Bytecode.read_dialects ?file ~engine b))
