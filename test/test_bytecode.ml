(* Bytecode round-trip and robustness suites.

   Round-trip: randomly generated modules (programmatic graphs and textual
   sources) and dialect specs (corpus text and synthetic resolved records
   covering every constraint constructor) must satisfy
   text→graph ≡ emit→load under the oracles in [Util], which do not use
   the codec (printed text, dialects up to locations); re-emitting a
   loaded module is byte-identical (the property the committed golden
   fixture gates in CI).

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
    if not (module_eq ops ops') then
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
    if not (module_eq ops ops') then
      Alcotest.failf "round-trip mismatch on generated text:\n%s" src
  done

(* Every op a streaming session yields, in order. *)
let stream_all ctx blob =
  let session = Bytecode.Stream.create ctx blob in
  let rec drain acc =
    match Bytecode.Stream.next session with
    | Ok None -> List.rev acc
    | Ok (Some op) -> drain (op :: acc)
    | Error d -> Alcotest.failf "stream error: %s" (Diag.to_string d)
  in
  drain []

(* Streaming load agrees with materializing load (it is the same code
   path, drained): same op count, same structure. *)
let stream_equals_materialize () =
  let st = Random.State.make [| 0x57a3 |] in
  for _ = 1 to 50 do
    let ops = rand_module st in
    let blob = emit_ok "emit" ops in
    if not (module_eq ops (stream_all (ctx ()) blob)) then
      Alcotest.fail "streamed load differs from emitted module"
  done

(* Text -> bytecode -> text gives the same text, and a streaming session
   yields the ops the materializing reader builds. The decoder keeps an
   op's result indices in a scratch that the ops of its regions reuse, so
   these shapes pin that each op binds its own results. *)
let decodes_back src () =
  let c = ctx () in
  let ops = check_ok "parse" (Irdl_ir.Parser.parse_ops c src) in
  let text = Irdl_ir.Printer.ops_to_string ~generic:true c ops in
  let blob = emit_ok "emit" ops in
  let c' = ctx () in
  let loaded = load_ok "load" c' blob in
  Alcotest.(check string) "text -> bytecode -> text" text
    (Irdl_ir.Printer.ops_to_string ~generic:true c' loaded);
  Alcotest.(check bool) "streamed = materialized" true
    (module_eq loaded (stream_all (ctx ()) blob))

let two_results_around_one_and_three =
  {|%a, %b = "t.pair"() ({
  %c = "t.one"() : () -> i32
  %d, %e, %f = "t.three"(%c) : (i32) -> (i32, f32, i64)
  "t.yield"(%d, %f) : (i32, i64) -> ()
}) : () -> (i32, f32)
%g = "t.use"(%a, %b) : (i32, f32) -> i32|}

let one_result_with_a_region =
  {|%a = "t.wrap"() ({
^bb0(%x: i32):
  %b, %c = "t.two"(%x) : (i32) -> (i32, f32)
  "t.yield"(%c) : (f32) -> ()
}) : () -> i64
%d = "t.use"(%a) : (i64) -> i64|}

let forward_use_of_second_result =
  {|%x = "t.fwd"(%q) : (f32) -> i32
%p, %q = "t.two"() : () -> (i32, f32)
%y = "t.use"(%p, %x) : (i32, i32) -> i32|}

(* ---------------- multi-document buffers ---------------- *)

let multi_document () =
  let c = ctx () in
  let parse src = check_ok "parse" (Irdl_ir.Parser.parse_ops c src) in
  let m1 = parse "%a = \"t.one\"() : () -> i32\n" in
  let m2 = parse "%b = \"t.two\"() : () -> f32\n%c = \"t.three\"(%b) : (f32) -> f32\n" in
  let blob = emit_ok "emit1" m1 ^ emit_ok "emit2" m2 in
  (match Bytecode.split_documents blob with
  | [ b1; b2 ] ->
      Alcotest.(check bool) "split1 sniffs" true (Bytecode.sniff b1);
      Alcotest.(check bool) "split2 sniffs" true (Bytecode.sniff b2);
      Alcotest.(check bool) "the parts are the documents" true
        (String.equal blob (b1 ^ b2))
  | parts -> Alcotest.failf "expected 2 parts, got %d" (List.length parts));
  Alcotest.(check (list string)) "one document is returned whole" [ blob ]
    (Bytecode.split_documents blob |> List.tl |> List.map (fun _ -> blob));
  (* An undecodable tail is one last opaque part. *)
  Alcotest.(check (list string)) "a tail is its own part" [ "junk" ]
    (Bytecode.split_documents (blob ^ "junk") |> List.tl |> List.tl);
  let ops = load_ok "load concat" (ctx ()) blob in
  Alcotest.(check int) "three ops across documents" 3 (List.length ops);
  Alcotest.(check bool)
    "concat equals m1 @ m2" true
    (module_eq (m1 @ m2) ops)

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

(* A signature row is found by content. An op takes the row its entry
   was given only while it still has the entry's signature, so ops that
   share an entry and then differ get their own rows, from a streaming
   writer as from a whole-module one. *)
let writer_rows_follow_content () =
  let src =
    "%a = \"t.c\"() {v = 1 : i32} : () -> i32\n\
     %b = \"t.c\"() {v = 1 : i32} : () -> i32\n\
     %d = \"t.c\"() {v = 1 : i32} : () -> i32\n"
  in
  let check_mutated what ops =
    let a, b, d =
      match ops with [ a; b; d ] -> (a, b, d) | _ -> Alcotest.fail "3 ops"
    in
    Alcotest.(check bool) (what ^ ": one shared entry") true
      (a.Graph.op_sig == b.Graph.op_sig && b.op_sig == d.Graph.op_sig);
    let before = emit_ok "emit" ops in
    Graph.Op.set_attr b "v" (Attr.int ~ty:Attr.i32 2L);
    let w = Bytecode.Write.create () in
    List.iter (Bytecode.Write.push_op w) ops;
    let streamed = check_ok "close" (Bytecode.Write.close w) in
    Alcotest.(check bool) (what ^ ": streamed = whole") true
      (String.equal streamed (emit_ok "emit" ops));
    Alcotest.(check bool) (what ^ ": the change shows") false
      (String.equal streamed before);
    let c = ctx () in
    let loaded = load_ok "load" c streamed in
    Alcotest.(check bool) (what ^ ": loads as emitted") true
      (module_eq ops loaded);
    Alcotest.(check string) (what ^ ": prints as emitted")
      (Irdl_ir.Printer.ops_to_string ~generic:true (ctx ()) ops)
      (Irdl_ir.Printer.ops_to_string ~generic:true c loaded)
  in
  let parsed = check_ok "parse" (Irdl_ir.Parser.parse_ops (ctx ()) src) in
  let blob = emit_ok "emit" parsed in
  check_mutated "parsed" parsed;
  check_mutated "decoded" (load_ok "load" (ctx ()) blob)

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
  (* An IR module is not a dialect pack. *)
  check_err_containing "module as dialects"
    "bytecode document holds an IR module, expected dialect definitions"
    (Frontend.load_dialects (ctx ())
       (Frontend.Source.Binary (emit_ok "emit" [ Graph.Op.create "t.a" ])));
  (* A dialect pack is a module: it reads as its irdl.dialect ops. *)
  let dblob =
    check_ok "emit dialects"
      (Bytecode.Write.dialects_to_string
         (check_ok "analyze"
            (Irdl_core.Irdl.analyze Irdl_dialects.Cmath.source)))
  in
  Alcotest.(check (list string)) "dialects as module" [ "irdl.dialect" ]
    (List.map Graph.Op.name (load_ok "read pack" (ctx ()) dblob));
  (* The retired dialect document kind, 1, is an unknown kind. *)
  let kind1 = Bytes.of_string dblob in
  Bytes.set kind1 (String.length Bytecode.magic + 1) '\x01';
  (match
     Bytecode.read_module ~file:"kind.irdlbc" (ctx ()) (Bytes.to_string kind1)
   with
  | Ok _ -> Alcotest.fail "kind 1 must be rejected"
  | Error d ->
      check_err_containing "kind 1" "unknown document kind 1" (Error d);
      Alcotest.(check string) "located at the input" "kind.irdlbc"
        d.Diag.loc.start_pos.file);
  check_err_containing "text as bytecode" "bad magic"
    (Bytecode.read_module (ctx ()) "%a = \"t.x\"() : () -> i32\n")

(* A version 1 module document, as the version 1 writer emitted it for
   [v1_text] parsed from "v1.mlir": a forward use, two results with
   attributes, a region of two blocks with arguments and a branch, and
   uses of values defined outside the region. *)
let v1_text =
  {|%a = "t.fwd"(%c) : (i32) -> i32
%p, %q = "t.pair"() {k = 1 : i64, s = "x"} : () -> (i32, f32)
%c = "t.wrap"(%p) ({
^bb0(%x: i32):
  %y = "t.add"(%x, %a) : (i32, i32) -> i32
  "t.br"(%y)[^bb1] : (i32) -> ()
^bb1(%z: i32):
  "t.yield"(%z, %q) : (i32, f32) -> ()
}) : (i32) -> i32
%d = "t.add"(%c, %a) : (i32, i32) -> i32
%e = "t.add"(%d, %c) : (i32, i32) -> i32
|}

let v1_blob =
  "\xc9\x49\x52\x44\x4c\x42\x43\x00\x01\x00\xbb\x01\x0a\x05\x74\x2e\x66\x77\
   \x64\x07\x76\x31\x2e\x6d\x6c\x69\x72\x06\x74\x2e\x70\x61\x69\x72\x01\x6b\
   \x01\x73\x01\x78\x06\x74\x2e\x77\x72\x61\x70\x05\x74\x2e\x61\x64\x64\x04\
   \x74\x2e\x62\x72\x07\x74\x2e\x79\x69\x65\x6c\x64\x05\x01\x20\x00\x02\x02\
   \x01\x40\x00\x22\x02\x02\x24\x05\x09\x05\x0c\x11\x39\x0d\x0d\x00\x01\x01\
   \x01\x01\x00\x01\x00\x01\x00\x00\x00\x02\x01\x02\x01\x00\x02\x00\x02\x01\
   \x03\x02\x03\x03\x04\x04\x00\x00\x06\x01\x03\x01\x01\x02\x01\x00\x00\x00\
   \x00\x01\x2c\x02\x01\x00\x04\x01\x00\x05\x02\x07\x01\x05\x03\x02\x04\x01\
   \x01\x00\x06\x00\x00\x00\x08\x01\x06\x03\x01\x06\x00\x00\x01\x01\x00\x01\
   \x09\x01\x08\x03\x02\x05\x03\x00\x00\x00\x00\x07\x01\x0a\x01\x02\x00\x01\
   \x01\x00\x07\x00\x00\x00\x07\x01\x0b\x01\x02\x07\x00\x01\x00\x08\x00\x00\
   \x00"

let version_of blob = Char.code blob.[String.length Bytecode.magic]

(* The compatibility window. The writer emits version 2 and the reader
   accepts exactly versions 1..[Bytecode.version]: a version 1 document,
   kept above byte for byte, still loads as its text parses, and anything
   outside the window is rejected up front with a diagnostic located at
   the input file, never decoded on a guess. *)
let compat_window () =
  let blob =
    emit_ok "emit"
      [ Graph.Op.create ~result_tys:[ Attr.i32 ] "t.window" ]
  in
  Alcotest.(check int) "the writer emits version 2" 2 (version_of blob);
  Alcotest.(check int) "the kept document is version 1" 1 (version_of v1_blob);
  let parsed =
    check_ok "parse" (Irdl_ir.Parser.parse_ops ~file:"v1.mlir" (ctx ()) v1_text)
  in
  let loaded = load_ok "v1 document loads" (ctx ()) v1_blob in
  Alcotest.(check bool)
    "the v1 document loads as its text parses" true
    (module_eq parsed loaded);
  let patched v =
    let b = Bytes.of_string v1_blob in
    Bytes.set b (String.length Bytecode.magic) (Char.chr v);
    Bytes.to_string b
  in
  List.iter
    (fun v ->
      match Bytecode.read_module ~file:"skew.irdlbc" (ctx ()) (patched v) with
      | Ok _ -> Alcotest.failf "version %d must be rejected" v
      | Error d ->
          check_err_containing
            (Printf.sprintf "version %d" v)
            "supports versions 1..2" (Error d);
          Alcotest.(check bool)
            "diagnostic is located" false
            (Irdl_support.Loc.is_unknown d.Diag.loc);
          Alcotest.(check string)
            "diagnostic names the input file" "skew.irdlbc"
            d.Diag.loc.start_pos.file)
    [ 0; Bytecode.version + 1 ]

(* A version 1 document re-emits as version 2, locations included, and
   both print the same text; the re-emit is what the text itself emits. *)
let v1_reemit_prints_the_same () =
  let print blob =
    let c = ctx () in
    Irdl_ir.Printer.ops_to_string ~generic:true c (load_ok "load" c blob)
  in
  let v2 = emit_ok "re-emit" (load_ok "load v1" (ctx ()) v1_blob) in
  Alcotest.(check int) "re-emitted as version 2" 2 (version_of v2);
  Alcotest.(check string) "same printed text" (print v1_blob) (print v2);
  let parsed =
    check_ok "parse" (Irdl_ir.Parser.parse_ops ~file:"v1.mlir" (ctx ()) v1_text)
  in
  Alcotest.(check bool) "the text emits the same bytes" true
    (String.equal v2 (emit_ok "emit text" parsed));
  Alcotest.(check bool) "the re-emit re-emits byte for byte" true
    (String.equal v2 (emit_ok "re-emit v2" (load_ok "load v2" (ctx ()) v2)))

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
      let dls' = check_ok "load dialects" (read_pack blob) in
      Alcotest.(check int) "dialect count" (List.length dls) (List.length dls');
      List.iter2
        (fun d1 d2 ->
          if not (dialect_eq d1 d2) then
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
    match check_ok "load" (read_pack blob) with
    | [ dl' ] ->
        if not (dialect_eq dl dl') then
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

(* ---------------- pack shape fuzz ---------------- *)

(* A valid pack module given one broken shape loads with exactly one
   located diagnostic, with and without an engine, and never raises. *)
let lifter_shapes () =
  let dls =
    check_ok "analyze"
      (Irdl_core.Irdl.analyze ~file:"cmath.irdl" Irdl_dialects.Cmath.source)
  in
  let irdl name params = Attr.dyn_attr ~dialect:"irdl" ~name params in
  let operation ops name =
    let found = ref None in
    List.iter
      (Graph.Op.walk ~f:(fun op ->
           if
             Graph.Op.name op = "irdl.operation"
             && Graph.Op.attr op "name" = Some (Attr.string name)
           then found := Some op))
      ops;
    Option.get !found
  in
  let operands ops name bad =
    Graph.Op.set_attr (operation ops name) "operands"
      (Attr.array
         [
           irdl "slot"
             [ Attr.string "c"; bad; Attr.location ~file:"" ~line:0 ~col:0 ];
         ]);
    ops
  in
  let cases =
    [
      ( "missing name",
        fun ops ->
          Graph.Op.remove_attr (operation ops "mul") "name";
          ops );
      ("wrong arity", fun ops -> operands ops "norm" (irdl "not" []));
      ("unknown constructor", fun ops -> operands ops "norm" (irdl "bogus" []));
      ( "missing dialect name",
        fun ops ->
          List.iter (fun op -> Graph.Op.remove_attr op "name") ops;
          ops );
      ("non-irdl top-level op", fun ops -> ops @ [ Graph.Op.create "t.x" ]);
    ]
  in
  let native = Irdl_core.Native.create () in
  Irdl_dialects.Cmath.register_hooks native;
  List.iter
    (fun (what, break) ->
      let ops = List.map Irdl_core.Dialect_ir.lower dls in
      let blob = emit_ok what (break ops) in
      let load ?engine () =
        match
          Frontend.load_dialects ~native ~file:"pack.irdlbc" ?engine (ctx ())
            (Frontend.Source.Binary blob)
        with
        | r -> r
        | exception e ->
            Alcotest.failf "%s: load raised %s" what (Printexc.to_string e)
      in
      let engine = Diag.Engine.create () in
      ignore (check_ok what (load ~engine ()));
      let d = check_err what (load ()) in
      match Diag.Engine.diagnostics engine with
      | [ e ] ->
          Alcotest.(check string) (what ^ ": same diagnostic") d
            (Diag.to_string e);
          Alcotest.(check bool) (what ^ ": located") false
            (Irdl_support.Loc.is_unknown e.loc)
      | ds ->
          Alcotest.failf "%s: %d diagnostics: %s" what (List.length ds)
            (String.concat "; " (List.map Diag.to_string ds)))
    cases

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
  attempt (fun () -> read_pack blob);
  attempt (fun () -> Bytecode.split_documents blob);
  attempt (fun () ->
      let payload = Frontend.Source.Binary blob in
      ignore (Frontend.load_dialects (ctx ()) payload);
      match
        Frontend.load_dialects ~engine:(Diag.Engine.create ()) (ctx ()) payload
      with
      | Ok _ -> ()
      | Error d ->
          Alcotest.failf "%s: fail-soft load returned Error: %s" what
            (Diag.to_string d));
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
    [ mblob; dblob; v1_blob ]

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
    [ mblob; dblob; v1_blob ]

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
    (module_eq ops ops')

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
    tc "decoder: a 2-result op around 1- and 3-result ops"
      (decodes_back two_results_around_one_and_three);
    tc "decoder: a 1-result op with a region"
      (decodes_back one_result_with_a_region);
    tc "decoder: a forward use of a second result"
      (decodes_back forward_use_of_second_result);
    tc "multi-document buffers" multi_document;
    tc "writer: undefined value" writer_undefined_value;
    tc "writer: top-level successor" writer_toplevel_successor;
    tc "writer: rows follow content" writer_rows_follow_content;
    tc "reader: duplicate attribute names" reader_duplicate_attribute;
    tc "version and kind skew" version_skew;
    tc "compatibility window (v1 frozen, skew located)" compat_window;
    tc "a v1 document and its v2 re-emit print the same"
      v1_reemit_prints_the_same;
    tc "dialect pack registers (warm start)" dialect_pack_registers;
    tc "fuzz: pack shapes" lifter_shapes;
    tc "fuzz: truncations" fuzz_truncations;
    tc "fuzz: bit flips" fuzz_bitflips;
    tc "fuzz: random payloads" fuzz_random_payloads;
    tc "frontend: source sniffing and chunks" source_sniffing;
    tc "frontend: sinks" sink_matches_printer;
    tc "frontend: stream dispatch" frontend_stream_dispatch;
  ]
