(* Bytecode round-trip and robustness suites.

   Round-trip: randomly generated modules (programmatic graphs and textual
   sources) and dialect specs (corpus text and synthetic resolved records
   covering every constraint constructor) must satisfy
   text→graph ≡ emit→load under the structural oracles in
   [Bytecode.Equal]; re-emitting a loaded module is byte-identical (the
   property the committed golden fixture gates in CI).

   Robustness: truncations and bit flips of valid bytecode must surface as
   diagnostics — an [Error] or engine emits — never as an exception. *)

open Util
module Attr = Irdl_ir.Attr
module Graph = Irdl_ir.Graph
module Context = Irdl_ir.Context
module Bytecode = Irdl_bytecode.Bytecode
module Frontend = Irdl_bytecode.Frontend
module Resolve = Irdl_core.Resolve
module C = Irdl_core.Constraint_expr
module Diag = Irdl_support.Diag

let ctx () = Context.create ()

(* ---------------- random module graphs ---------------- *)

let pick st a = a.(Random.State.int st (Array.length a))

let ty_pool =
  [|
    Attr.i32;
    Attr.i64;
    Attr.f32;
    Attr.index;
    Attr.tuple [ Attr.i32; Attr.f32 ];
    Attr.function_ty ~inputs:[ Attr.i32 ] ~outputs:[ Attr.f64 ];
    Attr.dynamic ~dialect:"cmath" ~name:"complex" [ Attr.typ Attr.f32 ];
    Attr.integer ~signedness:Attr.Signed 8;
  |]

let attr_pool =
  [|
    Attr.unit;
    Attr.bool true;
    Attr.int 42L;
    Attr.int Int64.min_int;
    Attr.int Int64.max_int;
    Attr.float 3.5;
    Attr.float nan;
    Attr.float neg_infinity;
    Attr.string "hello\x00\xffworld";
    Attr.string "";
    Attr.array [ Attr.int 1L; Attr.string "x" ];
    Attr.dict [ ("b", Attr.unit); ("a", Attr.int 7L) ];
    Attr.typ Attr.f32;
    Attr.enum ~dialect:"d" ~enum:"e" "case";
    Attr.symbol "@main";
    Attr.location ~file:"f.mlir" ~line:3 ~col:9;
    Attr.type_id "cmath.complex";
    Attr.opaque ~tag:"native" "repr<1>";
    Attr.dyn_attr ~dialect:"d" ~name:"a" [ Attr.bool false ];
  |]

let rand_attrs st =
  List.init (Random.State.int st 3) (fun i ->
      (Printf.sprintf "k%d" i, pick st attr_pool))

(* A random op: operands drawn from [avail], results added to it, an
   occasional region with blocks, arguments and branch successors. *)
let rec rand_op st ~depth avail =
  let n_operands = min (Random.State.int st 4) (List.length !avail) in
  let operands =
    List.init n_operands (fun _ ->
        List.nth !avail (Random.State.int st (List.length !avail)))
  in
  let result_tys =
    List.init (Random.State.int st 3) (fun _ -> pick st ty_pool)
  in
  let regions =
    if depth < 2 && Random.State.int st 4 = 0 then
      [ rand_region st ~depth avail ]
    else []
  in
  let op =
    Graph.Op.create ~operands ~result_tys ~attrs:(rand_attrs st) ~regions
      (Printf.sprintf "t.op%d" (Random.State.int st 5))
  in
  avail := Graph.Op.results op @ !avail;
  op

and rand_region st ~depth avail =
  let n_blocks = 1 + Random.State.int st 2 in
  let blocks =
    List.init n_blocks (fun _ ->
        let arg_tys =
          List.init (Random.State.int st 3) (fun _ -> pick st ty_pool)
        in
        Graph.Block.create ~arg_tys ())
  in
  let blocks_arr = Array.of_list blocks in
  List.iter
    (fun b ->
      avail := Graph.Block.args b @ !avail;
      for _ = 1 to Random.State.int st 3 do
        Graph.Block.append b (rand_op st ~depth:(depth + 1) avail)
      done;
      if n_blocks > 1 && Random.State.int st 2 = 0 then
        Graph.Block.append b
          (Graph.Op.create ~successors:[ pick st blocks_arr ] "t.br"))
    blocks;
  Graph.Region.create ~blocks ()

let rand_module st =
  let avail = ref [] in
  List.init (1 + Random.State.int st 5) (fun _ -> rand_op st ~depth:0 avail)

let emit_ok what ops =
  check_ok what (Bytecode.Write.module_to_string ops)

let load_ok what ctx blob = check_ok what (Bytecode.read_module ctx blob)

let roundtrip_generated_graphs () =
  let st = Random.State.make [| 0xb17ec0de |] in
  for i = 1 to 1_000 do
    let ops = rand_module st in
    let blob = emit_ok "emit" ops in
    let ops' = load_ok "load" (ctx ()) blob in
    if not (Bytecode.Equal.module_eq ops ops') then
      Alcotest.failf "round-trip mismatch on generated graph %d" i;
    (* Loaded modules re-emit byte-identically: the golden-fixture gate. *)
    let blob' = emit_ok "re-emit" ops' in
    if blob <> blob' then
      Alcotest.failf "re-emit not byte-identical on generated graph %d" i
  done

(* Textual leg: parse generated text (forward references included), then
   emit→load and compare against the parsed graph. *)
let generated_text st n =
  let buf = Buffer.create (n * 40) in
  Buffer.add_string buf "%v0 = \"t.const\"() : () -> i32\n";
  for i = 1 to n - 1 do
    (* A forward reference to the next op every few ops. *)
    if i < n - 1 && Random.State.int st 7 = 0 then
      Buffer.add_string buf
        (Printf.sprintf "%%v%d = \"t.fwd\"(%%v%d) : (i32) -> i32\n" i (i + 1))
    else
      Buffer.add_string buf
        (Printf.sprintf "%%v%d = \"t.%s\"(%%v%d) : (i32) -> i32\n" i
           (if i land 1 = 0 then "add" else "mul")
           (i - 1))
  done;
  Buffer.contents buf

let roundtrip_generated_text () =
  let st = Random.State.make [| 0x7e47 |] in
  for _ = 1 to 50 do
    let src = generated_text st (5 + Random.State.int st 60) in
    let c = ctx () in
    let ops = check_ok "parse" (Irdl_ir.Parser.parse_ops c src) in
    let blob = emit_ok "emit" ops in
    let ops' = load_ok "load" (ctx ()) blob in
    if not (Bytecode.Equal.module_eq ops ops') then
      Alcotest.failf "round-trip mismatch on generated text:\n%s" src
  done

(* Streaming load agrees with materializing load (it is the same code
   path, drained): same op count, same structure. *)
let stream_equals_materialize () =
  let st = Random.State.make [| 0x57a3 |] in
  for _ = 1 to 50 do
    let ops = rand_module st in
    let blob = emit_ok "emit" ops in
    let session = Bytecode.Stream.create (ctx ()) blob in
    let rec drain acc =
      match Bytecode.Stream.next session with
      | Ok None -> List.rev acc
      | Ok (Some op) -> drain (op :: acc)
      | Error d -> Alcotest.failf "stream error: %s" (Diag.to_string d)
    in
    let streamed = drain [] in
    if not (Bytecode.Equal.module_eq ops streamed) then
      Alcotest.fail "streamed load differs from emitted module"
  done

(* ---------------- multi-document buffers ---------------- *)

let multi_document () =
  let c = ctx () in
  let parse src = check_ok "parse" (Irdl_ir.Parser.parse_ops c src) in
  let m1 = parse "%a = \"t.one\"() : () -> i32\n" in
  let m2 = parse "%b = \"t.two\"() : () -> f32\n%c = \"t.three\"(%b) : (f32) -> f32\n" in
  let blob = emit_ok "emit1" m1 ^ emit_ok "emit2" m2 in
  Alcotest.(check int)
    "two documents" 2
    (List.length (Bytecode.documents blob));
  (match Bytecode.split_documents blob with
  | [ b1; b2 ] ->
      Alcotest.(check bool) "split1 sniffs" true (Bytecode.sniff b1);
      Alcotest.(check bool) "split2 sniffs" true (Bytecode.sniff b2)
  | parts -> Alcotest.failf "expected 2 parts, got %d" (List.length parts));
  let ops = load_ok "load concat" (ctx ()) blob in
  Alcotest.(check int) "three ops across documents" 3 (List.length ops);
  Alcotest.(check bool)
    "concat equals m1 @ m2" true
    (Bytecode.Equal.module_eq (m1 @ m2) ops)

(* ---------------- writer error cases ---------------- *)

let writer_undefined_value () =
  let c = ctx () in
  let ops =
    check_ok "parse"
      (Irdl_ir.Parser.parse_ops ~engine:(Diag.Engine.create ()) c
         "%a = \"t.use\"(%undef) : (i32) -> i32\n")
  in
  (* %undef stays a Forward_ref: the writer must reject the module. *)
  check_err_containing "emit with undefined value" "never defined"
    (Bytecode.Write.module_to_string ops)

let writer_toplevel_successor () =
  let b = Graph.Block.create () in
  let op = Graph.Op.create ~successors:[ b ] "t.br" in
  check_err_containing "emit with top-level successor" "successor"
    (Bytecode.Write.module_to_string [ op ])

(* An op built with a repeated attribute name serializes as it is; the
   reader rejects it, located at the byte after its attributes, and a
   fail-soft read reports it and goes on. *)
let reader_duplicate_attribute () =
  let one = Attr.int ~ty:Attr.i32 1L and two = Attr.int ~ty:Attr.i32 2L in
  let op =
    Graph.Op.create ~attrs:[ ("a", one); ("b", one); ("a", two) ] "t.op"
  in
  let blob = emit_ok "emit" [ op ] in
  check_err_containing "read"
    "malformed bytecode: duplicate key 'a' in dictionary attribute at byte"
    (Bytecode.read_module (ctx ()) blob);
  let msg = check_err "read" (Bytecode.read_module (ctx ()) blob) in
  let engine = Diag.Engine.create () in
  let ops =
    check_ok "fail-soft read" (Bytecode.read_module ~engine (ctx ()) blob)
  in
  Alcotest.(check int) "no op" 0 (List.length ops);
  Alcotest.(check (list string))
    "one diagnostic" [ msg ]
    (List.map Diag.to_string (Diag.Engine.diagnostics engine))

(* ---------------- version and kind skew ---------------- *)

let version_skew () =
  let blob = emit_ok "emit" [] in
  (* Bump the version varint (byte right after the magic). *)
  let bumped = Bytes.of_string blob in
  Bytes.set bumped (String.length Bytecode.magic)
    (Char.chr (Bytecode.version + 1));
  check_err_containing "future version" "version"
    (Bytecode.read_module (ctx ()) (Bytes.to_string bumped));
  (* A module document is not a dialect pack, and vice versa. *)
  check_err_containing "module as dialects" "expected dialect"
    (Bytecode.read_dialects blob);
  let dblob = check_ok "emit dialects" (Bytecode.Write.dialects_to_string []) in
  check_err_containing "dialects as module" "expected an IR module"
    (Bytecode.read_module (ctx ()) dblob);
  check_err_containing "text as bytecode" "bad magic"
    (Bytecode.read_module (ctx ()) "%a = \"t.x\"() : () -> i32\n")

(* The compatibility window. The writer's header version is frozen at 1 —
   the contract the committed golden fixture (test/bytecode.t) gates — and
   the reader accepts exactly versions 1..[Bytecode.version]: anything
   outside the window is rejected up front with a diagnostic located at
   the input file, never decoded on a guess. *)
let compat_window () =
  let blob =
    emit_ok "emit"
      [ Graph.Op.create ~result_tys:[ Attr.i32 ] "t.window" ]
  in
  let voff = String.length Bytecode.magic in
  Alcotest.(check int) "header version byte is frozen at 1" 1
    (Char.code blob.[voff]);
  ignore (load_ok "v1 document loads" (cmath_ctx ()) blob);
  let patched v =
    let b = Bytes.of_string blob in
    Bytes.set b voff (Char.chr v);
    Bytes.to_string b
  in
  check_err_containing "version 0 (below the window)" "version"
    (Bytecode.read_module ~file:"skew.irdlbc" (ctx ()) (patched 0));
  (match
     Bytecode.read_module ~file:"skew.irdlbc" (ctx ())
       (patched (Bytecode.version + 1))
   with
  | Ok _ -> Alcotest.fail "future version must be rejected"
  | Error d ->
      check_err_containing "future version" "version" (Error d);
      Alcotest.(check bool)
        "diagnostic is located" false
        (Irdl_support.Loc.is_unknown d.Diag.loc);
      Alcotest.(check string)
        "diagnostic names the input file" "skew.irdlbc"
        d.Diag.loc.start_pos.file)

(* ---------------- dialect round-trips ---------------- *)

let dialects_of_source what src =
  check_ok what (Irdl_core.Irdl.analyze src)

let roundtrip_corpus_dialects () =
  let entries =
    Irdl_dialects.Cmath.source
    :: List.map
         (fun (e : Irdl_dialects.Corpus.entry) -> e.source)
         Irdl_dialects.Corpus.all
  in
  List.iter
    (fun src ->
      let dls = dialects_of_source "analyze" src in
      let blob = check_ok "emit dialects" (Bytecode.Write.dialects_to_string dls) in
      let dls' = check_ok "load dialects" (Bytecode.read_dialects blob) in
      Alcotest.(check int) "dialect count" (List.length dls) (List.length dls');
      List.iter2
        (fun d1 d2 ->
          if not (Bytecode.Equal.dialect_eq d1 d2) then
            Alcotest.failf "dialect %s did not round-trip" d1.Resolve.dl_name)
        dls dls')
    entries

(* Synthetic resolved dialects covering every constraint constructor —
   breadth the corpus text cannot guarantee. *)
let rec rand_constraint st depth : C.t =
  let sub () =
    if depth >= 3 then C.Any else rand_constraint st (depth + 1)
  in
  match Random.State.int st (if depth >= 3 then 14 else 24) with
  | 0 -> C.Any
  | 1 -> C.Any_type
  | 2 -> C.Any_attr
  | 3 -> C.Eq (pick st attr_pool)
  | 4 ->
      C.Base_type
        {
          dialect = "d";
          name = "t";
          params = (if Random.State.bool st then None else Some [ sub () ]);
        }
  | 5 -> C.Base_attr { dialect = "d"; name = "a"; params = Some [] }
  | 6 -> C.Int_param { ik_width = 32; ik_signedness = Attr.Signed }
  | 7 -> C.Float_param (if Random.State.bool st then None else Some Attr.F32)
  | 8 -> C.String_param
  | 9 -> C.Symbol_param
  | 10 -> C.Bool_param
  | 11 -> C.Location_param
  | 12 -> C.Type_id_param
  | 13 -> C.Enum_param { dialect = "d"; enum = "e" }
  | 14 -> C.Array_any
  | 15 -> C.Array_of (sub ())
  | 16 -> C.Array_exact [ sub (); sub () ]
  | 17 -> C.Any_of [ sub (); sub () ]
  | 18 -> C.And [ sub () ]
  | 19 -> C.Not (sub ())
  | 20 -> C.Var { v_name = "T"; v_constraint = sub () }
  | 21 -> C.Native { name = "n"; base = sub (); snippets = [ "s1"; "s2" ] }
  | 22 -> C.Native_param { name = "np"; class_name = "Cls" }
  | _ ->
      if Random.State.bool st then C.Variadic (sub ()) else C.Optional (sub ())

let rand_slot st i : Resolve.slot =
  {
    s_name = Printf.sprintf "s%d" i;
    s_constraint = rand_constraint st 0;
    s_loc = Irdl_support.Loc.unknown;
  }

let rand_slots st = List.init (Random.State.int st 3) (rand_slot st)

let rand_dialect st i : Resolve.dialect =
  let typedef j : Resolve.typedef =
    {
      td_name = Printf.sprintf "t%d" j;
      td_params = rand_slots st;
      td_summary = (if Random.State.bool st then None else Some "summary");
      td_cpp = (if Random.State.bool st then [] else [ "cpp" ]);
      td_loc = Irdl_support.Loc.unknown;
    }
  in
  let opdef j : Resolve.op =
    {
      op_name = Printf.sprintf "op%d" j;
      op_summary = (if Random.State.bool st then None else Some "op summary");
      op_vars =
        (if Random.State.bool st then []
         else [ { C.v_name = "T"; v_constraint = rand_constraint st 0 } ]);
      op_operands = rand_slots st;
      op_results = rand_slots st;
      op_attributes = rand_slots st;
      op_regions =
        List.init (Random.State.int st 2) (fun k ->
            {
              Resolve.reg_name = Printf.sprintf "r%d" k;
              reg_args = rand_slots st;
              reg_terminator =
                (if Random.State.bool st then None else Some "d.ret");
            });
      op_successors =
        (match Random.State.int st 3 with
        | 0 -> None
        | 1 -> Some []
        | _ -> Some [ "next" ]);
      op_format = (if Random.State.bool st then None else Some "$s0 : $T");
      op_cpp = (if Random.State.bool st then [] else [ "hook" ]);
      op_loc = Irdl_support.Loc.unknown;
    }
  in
  let enums =
    List.init (Random.State.int st 2) (fun k ->
        {
          Irdl_core.Ast.e_name = Printf.sprintf "e%d" k;
          e_cases = [ "a"; "b" ];
          e_loc = Irdl_support.Loc.unknown;
        })
  in
  let name = Printf.sprintf "dl%d" i in
  {
    Resolve.dl_name = name;
    dl_types = List.init (Random.State.int st 3) typedef;
    dl_attrs = List.init (Random.State.int st 2) typedef;
    dl_ops = List.init (Random.State.int st 3) opdef;
    dl_enums = enums;
    dl_ast = { Irdl_core.Ast.d_name = name; d_items = []; d_loc = Irdl_support.Loc.unknown };
  }

let roundtrip_generated_dialects () =
  let st = Random.State.make [| 0xd1a1ec7 |] in
  for i = 1 to 1_000 do
    let dl = rand_dialect st i in
    let blob = check_ok "emit" (Bytecode.Write.dialects_to_string [ dl ]) in
    match check_ok "load" (Bytecode.read_dialects blob) with
    | [ dl' ] ->
        if not (Bytecode.Equal.dialect_eq dl dl') then
          Alcotest.failf "generated dialect %d did not round-trip" i
    | dls -> Alcotest.failf "expected 1 dialect, got %d" (List.length dls)
  done

(* A dialect pack loaded through the frontend is a working registry: the
   warm-start path. *)
let dialect_pack_registers () =
  let native = Irdl_core.Native.create () in
  Irdl_dialects.Cmath.register_hooks native;
  let dls = dialects_of_source "analyze cmath" Irdl_dialects.Cmath.source in
  let blob = check_ok "emit" (Bytecode.Write.dialects_to_string dls) in
  let c = ctx () in
  let loaded =
    check_ok "frontend load"
      (Frontend.load_dialects ~native c (Frontend.Source.classify blob))
  in
  Alcotest.(check int) "one dialect" 1 (List.length loaded);
  let op =
    parse_op c
      "%c = \"cmath.create_constant\"() {re = 1.0 : f32, im = 2.0 : f32} : () \
       -> !cmath.complex<f32>"
  in
  verify_ok c op

(* ---------------- corruption fuzz ---------------- *)

let sample_blobs () =
  let st = Random.State.make [| 0xfacade |] in
  let ops = rand_module st in
  let mblob = emit_ok "emit module" ops in
  let dblob =
    check_ok "emit dialects"
      (Bytecode.Write.dialects_to_string
         (dialects_of_source "analyze" Irdl_dialects.Cmath.source))
  in
  (mblob, dblob)

(* Every decode entry point, fail-fast and fail-soft, must return — with
   every reported diagnostic carrying a message — and never raise. *)
let never_crashes what blob =
  let attempt f =
    match f () with
    | exception e ->
        Alcotest.failf "%s: reader raised %s" what (Printexc.to_string e)
    | _ -> ()
  in
  attempt (fun () -> Bytecode.read_module (ctx ()) blob);
  attempt (fun () -> Bytecode.read_dialects blob);
  attempt (fun () -> Bytecode.documents blob);
  attempt (fun () ->
      let engine = Diag.Engine.create () in
      (match Bytecode.read_module ~engine (ctx ()) blob with
      | Ok _ -> ()
      | Error d ->
          Alcotest.failf "%s: fail-soft read returned Error: %s" what
            (Diag.to_string d));
      List.iter
        (fun (d : Diag.t) ->
          if d.message = "" then Alcotest.failf "%s: empty diagnostic" what)
        (Diag.Engine.diagnostics engine));
  attempt (fun () ->
      let session = Bytecode.Stream.create (ctx ()) blob in
      let rec drain n =
        if n > 10_000 then Alcotest.failf "%s: stream did not terminate" what
        else
          match Bytecode.Stream.next session with
          | Ok None | Error _ -> ()
          | Ok (Some _) -> drain (n + 1)
      in
      drain 0)

let fuzz_truncations () =
  let mblob, dblob = sample_blobs () in
  List.iter
    (fun blob ->
      let n = String.length blob in
      for len = 0 to min n 64 do
        never_crashes "truncation" (String.sub blob 0 len)
      done;
      let st = Random.State.make [| 0x7a11 |] in
      for _ = 1 to 200 do
        never_crashes "truncation" (String.sub blob 0 (Random.State.int st n))
      done)
    [ mblob; dblob ]

let fuzz_bitflips () =
  let mblob, dblob = sample_blobs () in
  let st = Random.State.make [| 0xf11b |] in
  List.iter
    (fun blob ->
      let n = String.length blob in
      for _ = 1 to 300 do
        let b = Bytes.of_string blob in
        for _ = 1 to 1 + Random.State.int st 4 do
          let i = Random.State.int st n in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int st 8)))
        done;
        never_crashes "bit flip" (Bytes.to_string b)
      done)
    [ mblob; dblob ]

let fuzz_random_payloads () =
  let st = Random.State.make [| 0x5eed |] in
  for _ = 1 to 200 do
    (* Valid magic, garbage after: the adversarial half of the sniffer. *)
    let tail =
      String.init (Random.State.int st 120) (fun _ ->
          Char.chr (Random.State.int st 256))
    in
    never_crashes "random payload" (Bytecode.magic ^ tail)
  done

(* ---------------- frontend plumbing ---------------- *)

let source_sniffing () =
  let text = "%a = \"t.x\"() : () -> i32\n" in
  (match Frontend.Source.classify text with
  | Frontend.Source.Text _ -> ()
  | Frontend.Source.Binary _ -> Alcotest.fail "text misclassified");
  let blob = emit_ok "emit" [] in
  (match Frontend.Source.classify blob with
  | Frontend.Source.Binary _ -> ()
  | Frontend.Source.Text _ -> Alcotest.fail "bytecode misclassified");
  (* Chunking: text splits at // -----, bytecode at document boundaries. *)
  let two_docs = blob ^ blob in
  Alcotest.(check int)
    "bytecode chunks" 2
    (List.length
       (Frontend.Source.chunks ~split:true (Frontend.Source.classify two_docs)));
  Alcotest.(check int)
    "unsplit bytecode is one chunk" 1
    (List.length
       (Frontend.Source.chunks ~split:false (Frontend.Source.classify two_docs)))

let sink_matches_printer () =
  let c = cmath_ctx () in
  let src =
    "%c = \"cmath.create_constant\"() {re = 1.0 : f32, im = 2.0 : f32} : () \
     -> !cmath.complex<f32>\n\
     %m = \"cmath.mul\"(%c, %c) : (!cmath.complex<f32>, !cmath.complex<f32>) \
     -> !cmath.complex<f32>\n"
  in
  let ops = check_ok "parse" (Irdl_ir.Parser.parse_ops c src) in
  let sink = Frontend.Sink.text c in
  List.iter (Frontend.Sink.push sink) ops;
  let out = check_ok "sink close" (Frontend.Sink.close sink) in
  Alcotest.(check string)
    "sink output equals ops_to_string"
    (Irdl_ir.Printer.ops_to_string c ops)
    out;
  (* And the bytecode sink round-trips the same module. *)
  let sink = Frontend.Sink.bytecode () in
  List.iter (Frontend.Sink.push sink) ops;
  let blob = check_ok "bytecode sink close" (Frontend.Sink.close sink) in
  let ops' = load_ok "load" (ctx ()) blob in
  Alcotest.(check bool)
    "sink blob round-trips" true
    (Bytecode.Equal.module_eq ops ops')

let frontend_stream_dispatch () =
  let c = cmath_ctx () in
  let src = "%x = \"cmath.create_constant\"() {re = 1.0 : f32, im = 2.0 : f32} : () -> !cmath.complex<f32>\n" in
  let ops = check_ok "parse" (Irdl_ir.Parser.parse_ops c src) in
  let blob = emit_ok "emit" ops in
  List.iter
    (fun payload ->
      let s = Frontend.Stream.create c payload in
      match Frontend.Stream.next s with
      | Ok (Some op) ->
          Alcotest.(check string)
            "op name" "cmath.create_constant" (Graph.Op.name op);
          (match Frontend.Stream.next s with
          | Ok None -> ()
          | _ -> Alcotest.fail "expected end of stream")
      | _ -> Alcotest.fail "expected one op")
    [ Frontend.Source.classify src; Frontend.Source.classify blob ]

let suite =
  [
    tc "round-trip: generated graphs (1000)" roundtrip_generated_graphs;
    tc "round-trip: generated text modules" roundtrip_generated_text;
    tc "round-trip: corpus + cmath dialects" roundtrip_corpus_dialects;
    tc "round-trip: generated dialects (1000)" roundtrip_generated_dialects;
    tc "stream equals materialize" stream_equals_materialize;
    tc "multi-document buffers" multi_document;
    tc "writer: undefined value" writer_undefined_value;
    tc "writer: top-level successor" writer_toplevel_successor;
    tc "reader: duplicate attribute names" reader_duplicate_attribute;
    tc "version and kind skew" version_skew;
    tc "compatibility window (v1 frozen, skew located)" compat_window;
    tc "dialect pack registers (warm start)" dialect_pack_registers;
    tc "fuzz: truncations" fuzz_truncations;
    tc "fuzz: bit flips" fuzz_bitflips;
    tc "fuzz: random payloads" fuzz_random_payloads;
    tc "frontend: source sniffing and chunks" source_sniffing;
    tc "frontend: sinks" sink_matches_printer;
    tc "frontend: stream dispatch" frontend_stream_dispatch;
  ]
