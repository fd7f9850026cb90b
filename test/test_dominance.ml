(** Tests for SSA dominance checking. *)

open Irdl_ir
open Util

let dom_ok ctx src =
  let op = parse_op ctx src in
  match Dominance.verify op with
  | Ok () -> ()
  | Error d -> Alcotest.failf "expected dominance: %s" (Irdl_support.Diag.to_string d)

let dom_err ctx src =
  let op = parse_op ctx src in
  match Dominance.verify op with
  | Ok () -> Alcotest.fail "expected a dominance violation"
  | Error _ -> ()

let straight_line () =
  let ctx = cmath_ctx () in
  dom_ok ctx
    {|
"f.f"() ({
^bb0(%a: i32):
  %b = "t.id"(%a) : (i32) -> i32
  "t.use"(%b, %a) : (i32, i32) -> ()
}) : () -> ()
|}

let use_before_def () =
  let ctx = cmath_ctx () in
  dom_err ctx
    {|
"f.f"() ({
^bb0:
  "t.use"(%later) : (i32) -> ()
  %later = "t.def"() : () -> i32
}) : () -> ()
|}

let self_reference () =
  (* an op using its own result *)
  let def = Graph.Op.create ~result_tys:[ Attr.i32 ] "t.def" in
  Graph.Op.set_operands def [ Graph.Op.result def 0 ];
  let blk = Graph.Block.create () in
  Graph.Block.append blk def;
  let wrap =
    Graph.Op.create ~regions:[ Graph.Region.create ~blocks:[ blk ] () ] "t.w"
  in
  match Dominance.verify wrap with
  | Ok () -> Alcotest.fail "self-use must not dominate"
  | Error _ -> ()

let cross_block_dominance () =
  let ctx = cmath_ctx () in
  (* bb0 dominates both successors: uses are fine *)
  dom_ok ctx
    {|
"f.f"() ({
^bb0(%c: i1):
  %x = "t.def"() : () -> i32
  "cmath.conditional_branch"(%c)[^then, ^else] : (i1) -> ()
^then:
  "t.use"(%x) : (i32) -> ()
^else:
  "t.use"(%x) : (i32) -> ()
}) : () -> ()
|};
  (* a value defined in one branch is not visible in the sibling branch *)
  dom_err ctx
    {|
"f.f"() ({
^bb0(%c: i1):
  "cmath.conditional_branch"(%c)[^then, ^else] : (i1) -> ()
^then:
  %y = "t.def"() : () -> i32
  "t.end"() : () -> ()
^else:
  "t.use"(%y) : (i32) -> ()
}) : () -> ()
|}

let diamond_join () =
  (* Values from either branch do not dominate the join; values from the
     entry do. *)
  let ctx = cmath_ctx () in
  dom_err ctx
    {|
"f.f"() ({
^bb0(%c: i1):
  "cmath.conditional_branch"(%c)[^l, ^r] : (i1) -> ()
^l:
  %v = "t.def"() : () -> i32
  "t.br"()[^join] : () -> ()
^r:
  "t.br"()[^join] : () -> ()
^join:
  "t.use"(%v) : (i32) -> ()
}) : () -> ()
|};
  dom_ok ctx
    {|
"f.f"() ({
^bb0(%c: i1):
  %v = "t.def"() : () -> i32
  "cmath.conditional_branch"(%c)[^l, ^r] : (i1) -> ()
^l:
  "t.br"()[^join] : () -> ()
^r:
  "t.br"()[^join] : () -> ()
^join:
  "t.use"(%v) : (i32) -> ()
}) : () -> ()
|}

let loop_back_edge () =
  (* The header's block argument dominates the loop body; a body-defined
     value does not dominate the header. *)
  let ctx = cmath_ctx () in
  dom_ok ctx
    {|
"f.f"() ({
^entry(%init: i32):
  "t.br"()[^header] : () -> ()
^header:
  "t.use"(%init) : (i32) -> ()
  "t.br"()[^body] : () -> ()
^body:
  %step = "t.def"() : () -> i32
  "t.use"(%step) : (i32) -> ()
  "t.br"()[^header] : () -> ()
}) : () -> ()
|};
  dom_err ctx
    {|
"f.f"() ({
^entry:
  "t.br"()[^header] : () -> ()
^header:
  "t.use"(%step) : (i32) -> ()
  "t.br"()[^body] : () -> ()
^body:
  %step = "t.def"() : () -> i32
  "t.br"()[^header] : () -> ()
}) : () -> ()
|}

let enclosing_region_visibility () =
  let ctx = cmath_ctx () in
  (* outer values visible inside nested regions *)
  dom_ok ctx
    {|
"f.f"() ({
^bb0(%lb: i32):
  "cmath.range_loop"(%lb, %lb, %lb) ({
  ^body(%iv: i32):
    "t.use"(%lb, %iv) : (i32, i32) -> ()
    "cmath.range_loop_terminator"() : () -> ()
  }) : (i32, i32, i32) -> ()
}) : () -> ()
|};
  (* inner values do not escape their region: the parser drops a region's
     names when it closes, so the escaped use is undefined text ... *)
  check_err_containing "escaped name" "use of undefined value %inner"
    (Parser.parse_op_string ctx
       {|
"f.f"() ({
^bb0(%lb: i32):
  "cmath.range_loop"(%lb, %lb, %lb) ({
  ^body(%iv: i32):
    %inner = "t.def"() : () -> i32
    "cmath.range_loop_terminator"() : () -> ()
  }) : (i32, i32, i32) -> ()
  "t.use"(%inner) : (i32) -> ()
}) : () -> ()
|});
  (* ... and a graph built with such a use fails dominance *)
  let inner = Graph.Op.create ~result_tys:[ Attr.i32 ] "t.def" in
  let body = Graph.Block.create ~arg_tys:[ Attr.i32 ] () in
  Graph.Block.append body inner;
  let loop =
    Graph.Op.create ~regions:[ Graph.Region.create ~blocks:[ body ] () ]
      "t.loop"
  in
  let outer_blk = Graph.Block.create () in
  Graph.Block.append outer_blk loop;
  Graph.Block.append outer_blk
    (Graph.Op.create ~operands:[ Graph.Op.result inner 0 ] "t.use");
  let f =
    Graph.Op.create
      ~regions:[ Graph.Region.create ~blocks:[ outer_blk ] () ]
      "f.f"
  in
  match Dominance.verify f with
  | Ok () -> Alcotest.fail "a use of an escaped inner value must fail"
  | Error _ -> ()

let op_result_not_visible_in_own_region () =
  (* an op's own results are not available inside its regions *)
  let blk = Graph.Block.create () in
  let region = Graph.Region.create ~blocks:[ blk ] () in
  let op = Graph.Op.create ~regions:[ region ] ~result_tys:[ Attr.i32 ] "t.loop" in
  Graph.Block.append blk
    (Graph.Op.create ~operands:[ Graph.Op.result op 0 ] "t.use");
  let outer_blk = Graph.Block.create () in
  Graph.Block.append outer_blk op;
  let wrap =
    Graph.Op.create
      ~regions:[ Graph.Region.create ~blocks:[ outer_blk ] () ]
      "t.w"
  in
  match Dominance.verify wrap with
  | Ok () -> Alcotest.fail "own-region use of own result must fail"
  | Error _ -> ()

let unreachable_blocks_permissive () =
  (* MLIR is permissive inside unreachable code; so are we. *)
  let ctx = cmath_ctx () in
  dom_ok ctx
    {|
"f.f"() ({
^bb0:
  "t.end"() : () -> ()
^dead1:
  "t.use"(%deadv) : (i32) -> ()
  "t.br"()[^dead2] : () -> ()
^dead2:
  %deadv = "t.def"() : () -> i32
  "t.br"()[^dead1] : () -> ()
}) : () -> ()
|}

let suite =
  [
    tc "straight-line code" straight_line;
    tc "use before def in a block" use_before_def;
    tc "self reference" self_reference;
    tc "cross-block dominance" cross_block_dominance;
    tc "diamond join" diamond_join;
    tc "loops and back edges" loop_back_edge;
    tc "enclosing-region visibility" enclosing_region_visibility;
    tc "op results not visible in own regions"
      op_result_not_visible_in_own_region;
    tc "unreachable code is permissive" unreachable_blocks_permissive;
  ]
