(* The seeded input generator behind every workload.

   All inputs are sampled from the ops [Irdl_core.Skeleton] can instantiate
   over the 28-dialect corpus, printed in canonical generic form, so the
   generator knows every answer by construction: a valid module is echoed
   byte-for-byte by [irdl-opt --generic], and a seeded error is a required
   attribute removed from an otherwise valid op, whose message and line the
   generator wrote itself. *)

module R = Irdl_core.Resolve
module S = Irdl_core.Skeleton
module Graph = Irdl_ir.Graph
module Printer = Irdl_ir.Printer
module Verifier = Irdl_ir.Verifier
module Bytecode = Irdl_bytecode.Bytecode
module Diag = Irdl_support.Diag

(* Skeleton leaves the required [body] region of these five [func] ops
   empty, so an instance of one fails verification at top level. Every
   other op it instantiates is valid there (checked in [load]). *)
let excluded =
  [ "spv.func"; "gpu.func"; "pdl_interp.func"; "std.func"; "llvm.func" ]

type template = {
  t_dialect : string;
  t_def : R.op;
  t_name : string;
  t_attrs : string list;  (** required attributes an instance carries *)
}

type corpus = {
  ctx : Irdl_ir.Context.t;
  dialects : R.dialect list;
  templates : template array;
  error_sites : (template * string) array;
      (** (template, attribute) pairs whose removal yields exactly the one
          "requires attribute" diagnostic *)
  considered : int;
}

let get_ok what = function
  | Ok x -> x
  | Error d -> failwith (what ^ ": " ^ Diag.to_string d)

let instantiate_with ~lookup ~op_lookup t =
  S.instantiate_op ~lookup ~op_lookup ~dialect:t.t_dialect t.t_def

let missing_attr_message t attr =
  Printf.sprintf "'%s' requires attribute '%s'" t.t_name attr

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The operand placeholders Skeleton created for [op], which must precede
   it at top level. *)
let placeholders op =
  List.filter_map
    (fun v ->
      match Graph.Value.defining_op v with
      | Some p when p.Graph.op_parent = None -> Some p
      | _ -> None)
    (Graph.Op.operands op)

let load () =
  let ctx = Irdl_ir.Context.create () in
  let dialects = get_ok "corpus" (Irdl_dialects.Corpus.load_all ctx) in
  let find_dl name =
    List.find_opt (fun (dl : R.dialect) -> dl.dl_name = name) dialects
  in
  let lookup ~kind ~dialect ~name =
    Option.bind (find_dl dialect) (fun (dl : R.dialect) ->
        let defs = match kind with `Type -> dl.dl_types | `Attr -> dl.dl_attrs in
        List.find_opt (fun (td : R.typedef) -> td.td_name = name) defs)
  in
  let op_lookup ~dialect ~name =
    Option.bind (find_dl dialect) (fun (dl : R.dialect) ->
        List.find_opt (fun (o : R.op) -> o.op_name = name) dl.dl_ops)
  in
  let considered = ref 0 in
  let templates =
    List.concat_map
      (fun (dl : R.dialect) ->
        List.filter_map
          (fun (def : R.op) ->
            incr considered;
            let name = dl.dl_name ^ "." ^ def.op_name in
            let t =
              { t_dialect = dl.dl_name; t_def = def; t_name = name; t_attrs = [] }
            in
            if List.mem name excluded then None
            else
              match instantiate_with ~lookup ~op_lookup t with
              | Error _ -> None
              | Ok inst ->
                  (match Verifier.verify_all ctx inst with
                  | [] -> ()
                  | d :: _ ->
                      failwith
                        (Printf.sprintf "generator: %s does not verify: %s" name
                           (Diag.to_string d)));
                  let attrs =
                    List.filter_map
                      (fun (s : R.slot) ->
                        if Irdl_core.Constraint_expr.is_optional s.s_constraint
                        then None
                        else
                          Option.map
                            (fun _ -> s.s_name)
                            (Graph.Op.attr inst s.s_name))
                      def.op_attributes
                  in
                  Some { t with t_attrs = attrs })
          dl.dl_ops)
      dialects
    |> Array.of_list
  in
  let error_sites =
    Array.to_list templates
    |> List.concat_map (fun t ->
           List.filter_map
             (fun attr ->
               let inst = get_ok t.t_name
                   (Result.map_error
                      (fun r -> Diag.make (S.skip_reason_to_string r))
                      (instantiate_with ~lookup ~op_lookup t))
               in
               Graph.Op.remove_attr inst attr;
               match Verifier.verify_all ctx inst with
               | [ d ] when contains d.Diag.message (missing_attr_message t attr)
                 ->
                   Some (t, attr)
               | _ -> None)
             t.t_attrs)
    |> Array.of_list
  in
  let instantiate t =
    match instantiate_with ~lookup ~op_lookup t with
    | Ok op -> op
    | Error r -> failwith (t.t_name ^ ": " ^ S.skip_reason_to_string r)
  in
  ( { ctx; dialects; templates; error_sites; considered = !considered },
    instantiate )

(* A text document under construction: one printer session (value names
   are numbered per session), ops joined by newlines exactly as
   [Frontend.Sink.text] joins them, and the current line tracked so seeded
   errors know where they land. *)
type doc = {
  buf : Buffer.t;
  printer : Printer.t;
  mutable first : bool;
  mutable line : int;
  mutable ops : int;  (** top-level ops written *)
}

let new_doc ?(buf = Buffer.create 65536) ?(line = 1) ctx =
  {
    buf;
    printer = Printer.create ~generic:true ctx;
    first = true;
    line;
    ops = 0;
  }

let add_text d s =
  Buffer.add_string d.buf s;
  String.iter (fun c -> if c = '\n' then d.line <- d.line + 1) s

let add_line d s =
  if d.first then d.first <- false else add_text d "\n";
  add_text d s

let add_op d op =
  if d.first then d.first <- false else add_text d "\n";
  let line = d.line in
  add_text d (Fmt.str "%a" (Printer.pp_op d.printer) op);
  d.ops <- d.ops + 1;
  line

(* One sampled corpus op (with its placeholders) appended to [d]. With
   [error], a seeded missing-attribute error instead: the annotation line
   goes right above the op when [annotate]. Returns the error's line and
   message. *)
let add_sample ~corpus ~instantiate ~rng ?(error = false) ?(annotate = false) d
    =
  if error then begin
    let t, attr =
      corpus.error_sites.(Random.State.int rng (Array.length corpus.error_sites))
    in
    let op = instantiate t in
    Graph.Op.remove_attr op attr;
    List.iter (fun p -> ignore (add_op d p)) (placeholders op);
    let msg = missing_attr_message t attr in
    if annotate then add_line d (Printf.sprintf "// expected-error@below {{%s}}" msg);
    Some (add_op d op, msg)
  end
  else begin
    let t =
      corpus.templates.(Random.State.int rng (Array.length corpus.templates))
    in
    let op = instantiate t in
    List.iter (fun p -> ignore (add_op d p)) (placeholders op);
    ignore (add_op d op);
    None
  end

(* The bytecode [irdl-opt --emit-bytecode] writes for a text document: ops
   parsed from a file carry their source locations, and so does their
   bytecode. *)
let bytecode_of_text ctx ~file text =
  let ops = get_ok file (Irdl_ir.Parser.parse_ops ~file ctx text) in
  get_ok "bytecode" (Bytecode.Write.module_to_string ops)

(* ------------------------------------------------------------------ *)
(* Output files                                                        *)
(* ------------------------------------------------------------------ *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* JSON strings carry bytes: anything outside printable ASCII is written
   as \u00XX, so a reader recovers the bytes with latin-1. *)
let json_string s =
  let b = Buffer.create (String.length s + 16) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Printf.bprintf b "%02x" (Char.code c)) s;
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* ------------------------------------------------------------------ *)
(* Workload inputs                                                     *)
(* ------------------------------------------------------------------ *)

(* Sizes, error placements and request kinds are exact shares of the input,
   shuffled by the seed, so that every seed gives the same amount of work
   and the seed only changes which ops fill it. *)
let shuffle ~rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [n] sizes evenly spread over [lo..hi], in seeded order. *)
let spread ~rng n lo hi =
  shuffle ~rng
    (Array.init n (fun i -> lo + ((hi - lo) * i / max 1 (n - 1))))

(* One module of at least [n] top-level ops (sampled corpus ops and their
   operand placeholders), as text with the final newline [irdl-opt]
   prints. *)
let gen_module ~corpus ~instantiate ~rng n =
  let d = new_doc corpus.ctx in
  while d.ops < n do
    ignore (add_sample ~corpus ~instantiate ~rng d)
  done;
  (Buffer.contents d.buf ^ "\n", d.ops)

(* A lit-style file: [chunks] chunks of [lo..hi] top-level ops separated by
   [// -----]; half of them carry one annotated seeded error. *)
let gen_lit ~corpus ~instantiate ~rng ~chunks ~lo ~hi =
  let buf = Buffer.create (1 lsl 20) in
  let errors = ref 0 and ops = ref 0 and line = ref 1 in
  let sizes = spread ~rng chunks lo hi in
  let bad_chunks = shuffle ~rng (Array.init chunks (fun i -> i mod 2 = 0)) in
  for i = 0 to chunks - 1 do
    if i > 0 then (Buffer.add_string buf "\n// -----\n"; line := !line + 2);
    let d = new_doc ~buf ~line:!line corpus.ctx in
    let n = sizes.(i) in
    let bad = if bad_chunks.(i) then Random.State.int rng n else -1 in
    let seeded = ref false in
    while d.ops < n do
      let error = (not !seeded) && d.ops >= bad && bad >= 0 in
      if error then (seeded := true; incr errors);
      ignore (add_sample ~corpus ~instantiate ~rng ~error ~annotate:true d)
    done;
    ops := !ops + d.ops;
    line := d.line
  done;
  Buffer.add_char buf '\n';
  (Buffer.contents buf, !errors, !ops)

let doc_file i = Printf.sprintf "doc%d.mlir" i

type request = {
  rq_kind : string;
  rq_payload : string;
  rq_status : string;
  rq_error_line : int;
  rq_error_msg : string;
  rq_output : string;  (** expected output bytes *)
  rq_ops : int;
}

(* The server's request list: documents of [lo..hi] top-level ops; 5%
   carry one seeded error; the kinds are 70% verify, 20% print, 10%
   emit-bytecode. *)
let gen_requests ~corpus ~instantiate ~rng ~n ~lo ~hi =
  let sizes = spread ~rng n lo hi in
  let bad = shuffle ~rng (Array.init n (fun i -> i < max 1 (n / 20))) in
  let kinds =
    shuffle ~rng
      (Array.init n (fun i ->
           match i mod 10 with
           | 0 -> "emit-bytecode"
           | 1 | 2 -> "print"
           | _ -> "verify"))
  in
  List.init n (fun i ->
      let kind = kinds.(i) in
      let d = new_doc corpus.ctx in
      let size = sizes.(i) in
      let err_at = if bad.(i) then Random.State.int rng size else -1 in
      let err = ref None in
      while d.ops < size do
        let error = !err = None && err_at >= 0 && d.ops >= err_at in
        match add_sample ~corpus ~instantiate ~rng ~error d with
        | Some e -> err := Some e
        | None -> ()
      done;
      let payload = Buffer.contents d.buf ^ "\n" in
      let status, line, msg, output =
        match !err with
        | Some (line, msg) -> ("verify_error", line, msg, "")
        | None ->
            ( "ok", 0, "",
              match kind with
              | "print" -> payload
              | "emit-bytecode" ->
                  bytecode_of_text corpus.ctx ~file:(doc_file i) payload
              | _ -> "" )
      in
      {
        rq_kind = kind;
        rq_payload = payload;
        rq_status = status;
        rq_error_line = line;
        rq_error_msg = msg;
        rq_output = output;
        rq_ops = d.ops;
      })

let request_json i r =
  json_obj
    [
      ("id", json_string (string_of_int i));
      ("kind", json_string r.rq_kind);
      ("file", json_string (doc_file i));
      ("payload", json_string r.rq_payload);
      ("status", json_string r.rq_status);
      ("error_line", string_of_int r.rq_error_line);
      ("error_msg", json_string r.rq_error_msg);
      ("output_hex", json_string (hex r.rq_output));
      ("ops", string_of_int r.rq_ops);
    ]

(* The request as a client puts it on the wire. *)
let request_frame i r =
  let module Server = Irdl_server.Server in
  let rq =
    {
      Server.rq_id = string_of_int i;
      rq_kind = Option.get (Server.kind_of_string r.rq_kind);
      rq_file = doc_file i;
      rq_limits = Irdl_support.Limits.unlimited;
      rq_payload = r.rq_payload;
    }
  in
  Irdl_server.Wire.encode_request
    ~header:(Server.request_header rq ~deadline_ms:0)
    ~payload:r.rq_payload

(* Sizes of each workload's inputs. *)
let module_ops = 200_000
let lit_chunks = 1000
let lit_ops = (50, 200)
let server_docs = 200
let server_ops = (50, 500)

let run ~workload ~seed ~dir =
  let corpus, instantiate = load () in
  let rng = Random.State.make [| seed |] in
  let path f = Filename.concat dir f in
  write_file (path "empty.mlir") "";
  let base =
    [
      ("workload", json_string workload);
      ("seed", string_of_int seed);
      ("corpus_ops", string_of_int corpus.considered);
      ("templates", string_of_int (Array.length corpus.templates));
      ("error_sites", string_of_int (Array.length corpus.error_sites));
      ("excluded", "[" ^ String.concat ", " (List.map json_string excluded) ^ "]");
    ]
  in
  let sizes =
    match workload with
    | "oneshot_text" | "oneshot_bytecode" ->
        let bytecode = workload = "oneshot_bytecode" in
        let text, top = gen_module ~corpus ~instantiate ~rng module_ops in
        write_file (path "module.mlir") text;
        let bc =
          if bytecode then
            Some (bytecode_of_text corpus.ctx ~file:"module.mlir" text)
          else None
        in
        Option.iter (write_file (path "module.irdlbc")) bc;
        if bytecode then
          write_file (path "corpus.irdlbc")
            (get_ok "dialect pack"
               (Bytecode.Write.dialects_to_string corpus.dialects));
        [
          ("top_level_ops", string_of_int top);
          ("text_bytes", string_of_int (String.length text));
          ( "bytecode_bytes",
            string_of_int (match bc with Some b -> String.length b | None -> 0) );
        ]
    | "lit_split_jobs" ->
        let lo, hi = lit_ops in
        let text, errors, ops =
          gen_lit ~corpus ~instantiate ~rng ~chunks:lit_chunks ~lo ~hi
        in
        write_file (path "lit.mlir") text;
        [
          ("chunks", string_of_int lit_chunks);
          ("seeded_errors", string_of_int errors);
          ("top_level_ops", string_of_int ops);
          ("text_bytes", string_of_int (String.length text));
        ]
    | "server_roundtrip" ->
        let lo, hi = server_ops in
        let reqs =
          gen_requests ~corpus ~instantiate ~rng ~n:server_docs ~lo ~hi
        in
        write_file (path "requests.json")
          ("[\n" ^ String.concat ",\n" (List.mapi request_json reqs) ^ "\n]\n");
        write_file (path "requests.frames")
          (String.concat "" (List.mapi request_frame reqs));
        let count p = List.length (List.filter p reqs) in
        [
          ("documents", string_of_int server_docs);
          ("seeded_errors", string_of_int (count (fun r -> r.rq_status <> "ok")));
          ( "top_level_ops",
            string_of_int (List.fold_left (fun n r -> n + r.rq_ops) 0 reqs) );
          ( "payload_bytes",
            string_of_int
              (List.fold_left (fun n r -> n + String.length r.rq_payload) 0 reqs)
          );
        ]
    | w -> failwith ("unknown workload " ^ w)
  in
  write_file (path "inputs.json") (json_obj (base @ sizes) ^ "\n")
