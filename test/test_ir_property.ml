(** Property tests over the IR itself: randomly generated programs survive a
    print/parse round trip structurally intact, and attributes round-trip
    through their textual form. *)

open Irdl_ir
open QCheck2.Gen

(* ---------------- random attribute round trip ---------------- *)

let float_gen =
  oneof
    [
      QCheck2.Gen.float;
      oneofl [ 0.0; -0.0; 1.5; -3.25; 1e-300; 1e300; 0.1; Float.epsilon;
               Float.max_float; Float.min_float; 1234567890123457.0 ];
      (* Non-finite values print as the bits of the double. *)
      oneofl [ Float.infinity; Float.neg_infinity; Float.nan;
               Int64.float_of_bits 0x7FF8000000000123L;
               Int64.float_of_bits 0xFFF0000000000001L ];
    ]

let attr_gen =
  let scalar =
    oneof
      [
        map (fun i -> Attr.int (Int64.of_int i)) int;
        map (fun f -> Attr.float f) float_gen;
        map (fun f -> Attr.float ~ty:Attr.f32 f) float_gen;
        map Attr.string (string_size ~gen:char (int_range 0 12));
        map Attr.bool bool;
        return Attr.unit;
        map Attr.symbol
          (string_size ~gen:(char_range 'a' 'z') (int_range 1 6));
        return (Attr.typ Attr.f32);
        return (Attr.typ (Attr.tuple [ Attr.i32; Attr.index ]));
        return (Attr.enum ~dialect:"d" ~enum:"e" "Case");
        return (Attr.type_id "X");
        map (Attr.opaque ~tag:"P") (string_size ~gen:char (int_range 0 8));
        map
          (fun file -> Attr.location ~file ~line:3 ~col:7)
          (string_size ~gen:char (int_range 0 8));
      ]
  in
  (* {!Attr.dict} rejects duplicate keys, so generated entries are
     deduplicated before construction. *)
  let uniq_keys kvs =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun (k, _) ->
        if Hashtbl.mem seen k then false
        else (
          Hashtbl.add seen k ();
          true))
      kvs
  in
  let rec go n =
    if n = 0 then scalar
    else
      frequency
        [
          (4, scalar);
          (1, map Attr.array (list_size (int_range 0 3) (go (n - 1))));
          ( 1,
            map
              (fun kvs -> Attr.dict (uniq_keys kvs))
              (list_size (int_range 0 3)
                 (pair
                    (string_size ~gen:(char_range 'a' 'z') (int_range 1 5))
                    (go (n - 1)))) );
          ( 1,
            map
              (fun a -> Attr.dyn_attr ~dialect:"d" ~name:"a" [ a ])
              (go (n - 1)) );
        ]
  in
  go 2

let attr_roundtrip =
  QCheck2.Test.make ~name:"attribute print/parse roundtrip" ~count:500
    ~print:Attr.to_string attr_gen
    (fun a ->
      let ctx = Context.create () in
      match Parser.parse_attr_string ctx (Attr.to_string a) with
      | Ok a' -> Attr.equal a a'
      | Error _ -> false)

(* ---------------- random program round trip ---------------- *)

let ty_pool = [| Attr.i1; Attr.i32; Attr.i64; Attr.f32; Attr.f64; Attr.index |]

(** A random straight-line program: each op consumes a random subset of
    previously defined values and produces 0-2 results. *)
let program_gen =
  let* n_ops = int_range 1 12 in
  let* seeds = list_repeat n_ops (pair (int_bound 1000) (int_bound 1000)) in
  return
    (let blk = Graph.Block.create ~arg_tys:[ Attr.i32; Attr.f32 ] () in
     let available = ref (Graph.Block.args blk) in
     List.iteri
       (fun i (s1, s2) ->
         let pick k =
           let avail = Array.of_list !available in
           List.init (k mod 3) (fun j ->
               avail.((s1 + j) mod Array.length avail))
         in
         let operands = pick s2 in
         let result_tys =
           List.init (s2 mod 3) (fun j ->
               ty_pool.((s1 + j) mod Array.length ty_pool))
         in
         let attrs =
           if s1 mod 4 = 0 then [ ("k", Attr.int (Int64.of_int s2)) ] else []
         in
         let op =
           Graph.Op.create ~operands ~result_tys ~attrs
             (Printf.sprintf "t.op%d" (i mod 5))
         in
         Graph.Block.append blk op;
         available := !available @ Graph.Op.results op)
       seeds;
     Graph.Op.create
       ~regions:[ Graph.Region.create ~blocks:[ blk ] () ]
       "t.func")

(* Structural equality of two op trees up to value identity. *)
let rec same_structure (a : Graph.op) (b : Graph.op) =
  Graph.Op.name a = Graph.Op.name b
  && Graph.Op.num_operands a = Graph.Op.num_operands b
  && List.for_all2
       (fun (x : Graph.value) (y : Graph.value) ->
         Attr.equal_ty (Graph.Value.ty x) (Graph.Value.ty y))
       (Graph.Op.operands a) (Graph.Op.operands b)
  && Graph.Op.num_results a = Graph.Op.num_results b
  && List.length a.Graph.attrs = List.length b.Graph.attrs
  && List.for_all2
       (fun (k1, v1) (k2, v2) -> k1 = k2 && Attr.equal v1 v2)
       a.Graph.attrs b.Graph.attrs
  && List.length a.Graph.regions = List.length b.Graph.regions
  && List.for_all2
       (fun (ra : Graph.region) (rb : Graph.region) ->
         Graph.Region.num_blocks ra = Graph.Region.num_blocks rb
         && List.for_all2
              (fun (ba : Graph.block) (bb : Graph.block) ->
                Graph.Block.num_args ba = Graph.Block.num_args bb
                && Graph.Block.num_ops ba = Graph.Block.num_ops bb
                && List.for_all2 same_structure (Graph.Block.ops ba)
                     (Graph.Block.ops bb))
              (Graph.Region.blocks ra) (Graph.Region.blocks rb))
       a.Graph.regions b.Graph.regions

let program_roundtrip =
  QCheck2.Test.make ~name:"random program print/parse roundtrip" ~count:200
    program_gen (fun prog ->
      let ctx = Context.create () in
      let printed = Printer.op_to_string ctx prog in
      match Parser.parse_op_string ctx printed with
      | Ok reparsed ->
          same_structure prog reparsed
          && Printer.op_to_string ctx reparsed = printed
      | Error _ -> false)

(* Use-def consistency: in a round-tripped program, operand identity is
   preserved (two uses of one value stay one value). *)
let use_def_consistency =
  QCheck2.Test.make ~name:"roundtrip preserves value sharing" ~count:200
    program_gen (fun prog ->
      let ctx = Context.create () in
      let count_distinct op =
        let ids = Hashtbl.create 16 in
        Graph.Op.walk op ~f:(fun o ->
            Graph.Op.iter_operands o ~f:(fun (v : Graph.value) ->
                Hashtbl.replace ids (Graph.Value.id v) ()));
        Hashtbl.length ids
      in
      match Parser.parse_op_string ctx (Printer.op_to_string ctx prog) with
      | Ok reparsed -> count_distinct prog = count_distinct reparsed
      | Error _ -> false)

(* ---------------- the single renderer on rich programs ---------------- *)

let complex_f32 = Util.complex_f32

(** A random module of 1-4 top-level ops, built from one seed: nested
    regions with several blocks, block arguments, successors, random
    attributes (dict, array, dyn, strings of any bytes, non-finite floats)
    and cmath ops whose custom format applies or falls back to generic. *)
let rich_module_gen =
  let+ seed = int in
  let rs = Random.State.make [| seed |] in
  let ri n = Random.State.int rs n in
  let tys = [| Attr.i1; Attr.i32; Attr.f32; Attr.index; complex_f32 |] in
  let pick_ty () = tys.(ri (Array.length tys)) in
  let pick avail = List.nth avail (ri (List.length avail)) in
  let of_ty ty avail =
    List.filter (fun v -> Attr.equal_ty (Graph.Value.ty v) ty) avail
  in
  let attrs () =
    List.init (ri 3) (fun i ->
        (Printf.sprintf "a%d" i, QCheck2.Gen.generate1 ~rand:rs attr_gen))
  in
  let rec make_op depth avail blocks =
    let complex = of_ty complex_f32 avail in
    match ri 6 with
    | 0 when complex <> [] ->
        (* custom format applies *)
        Graph.Op.create
          ~operands:[ pick complex; pick complex ]
          ~result_tys:[ complex_f32 ] "cmath.mul"
    | 1 when complex <> [] ->
        Graph.Op.create ~operands:[ pick complex ] ~result_tys:[ Attr.f32 ]
          "cmath.norm"
    | 2 when avail <> [] ->
        (* the format's type projection fails: generic fallback *)
        let v = pick avail in
        Graph.Op.create ~operands:[ v; v ]
          ~result_tys:[ Graph.Value.ty v ] "cmath.mul"
    | 3 when depth < 2 ->
        Graph.Op.create ~attrs:(attrs ())
          ~regions:
            (List.init (1 + ri 2) (fun _ -> make_region (depth + 1) avail))
          ~result_tys:(List.init (ri 2) (fun _ -> pick_ty ()))
          "t.region_op"
    | _ ->
        let operands =
          if avail = [] then [] else List.init (ri 3) (fun _ -> pick avail)
        in
        let successors =
          if blocks = [] then [] else List.init (ri 3) (fun _ -> pick blocks)
        in
        Graph.Op.create ~operands ~successors ~attrs:(attrs ())
          ~result_tys:(List.init (ri 3) (fun _ -> pick_ty ()))
          (Printf.sprintf "t.op%d" (ri 4))
  and make_region depth avail =
    let blocks =
      List.init (1 + ri 3) (fun _ ->
          Graph.Block.create
            ~arg_tys:(List.init (ri 3) (fun _ -> pick_ty ()))
            ())
    in
    (* As in MLIR, the entry block is no branch target (its label may be
       elided). *)
    let targets = List.tl blocks in
    List.iter
      (fun blk ->
        let avail = ref (avail @ Graph.Block.args blk) in
        for _ = 0 to ri 4 do
          let op = make_op depth !avail targets in
          Graph.Block.append blk op;
          avail := !avail @ Graph.Op.results op
        done)
      blocks;
    Graph.Region.create ~blocks ()
  in
  let avail = ref [] in
  List.init (1 + ri 4) (fun _ ->
      let op = make_op 0 !avail [] in
      avail := !avail @ Graph.Op.results op;
      op)

let print_module ops = Printer.ops_to_string (Util.cmath_ctx ()) ops

let sink_equals_ops_to_string =
  QCheck2.Test.make ~name:"op-by-op sink output equals ops_to_string"
    ~count:200 ~print:print_module rich_module_gen (fun ops ->
      let ctx = Util.cmath_ctx () in
      let sink = Irdl_bytecode.Frontend.Sink.text ctx in
      List.iter (Irdl_bytecode.Frontend.Sink.push sink) ops;
      Irdl_bytecode.Frontend.Sink.close sink
      = Ok (Printer.ops_to_string ctx ops))

let print_parse_fixpoint =
  QCheck2.Test.make ~name:"print . parse . print is a fixpoint" ~count:200
    ~print:print_module rich_module_gen (fun ops ->
      let ctx = Util.cmath_ctx () in
      let printed = Printer.ops_to_string ctx ops in
      match Parser.parse_ops ctx printed with
      | Ok ops' -> Printer.ops_to_string ctx ops' = printed
      | Error d -> QCheck2.Test.fail_report (Irdl_support.Diag.to_string d))

let suite =
  [
    QCheck_alcotest.to_alcotest attr_roundtrip;
    QCheck_alcotest.to_alcotest program_roundtrip;
    QCheck_alcotest.to_alcotest use_def_consistency;
    QCheck_alcotest.to_alcotest sink_equals_ops_to_string;
    QCheck_alcotest.to_alcotest print_parse_fixpoint;
  ]
