(* See the interface. *)

type t = {
  max_payload_bytes : int;
  max_ops : int;
  max_depth : int;
  deadline_ns : int64;
}

let unlimited =
  { max_payload_bytes = 0; max_ops = 0; max_depth = 0; deadline_ns = 0L }

let clamp n = if n < 0 then 0 else n

let create ?(max_payload_bytes = 0) ?(max_ops = 0) ?(max_depth = 0)
    ?(deadline_ns = 0L) () =
  {
    max_payload_bytes = clamp max_payload_bytes;
    max_ops = clamp max_ops;
    max_depth = clamp max_depth;
    deadline_ns = (if Int64.compare deadline_ns 0L < 0 then 0L else deadline_ns);
  }

let with_deadline_ms t ms =
  if ms <= 0 then { t with deadline_ns = 0L }
  else { t with deadline_ns = Monotonic.add_ms (Monotonic.now_ns ()) ms }

(* 0 is "unlimited", so the strictest combination is min-over-nonzero. *)
let meet_int a b = if a = 0 then b else if b = 0 then a else min a b

let meet_ns a b =
  if a = 0L then b
  else if b = 0L then a
  else if Int64.compare a b < 0 then a
  else b

let meet a b =
  {
    max_payload_bytes = meet_int a.max_payload_bytes b.max_payload_bytes;
    max_ops = meet_int a.max_ops b.max_ops;
    max_depth = meet_int a.max_depth b.max_depth;
    deadline_ns = meet_ns a.deadline_ns b.deadline_ns;
  }

let is_unlimited t = t = unlimited

let resource_exhausted = "resource_exhausted"
let deadline_exceeded = "deadline_exceeded"

let is_budget_code = function
  | Some c -> c = resource_exhausted || c = deadline_exceeded
  | None -> false

type budget = { limits : t; mutable ops : int; mutable depth : int }

let budget limits = { limits; ops = 0; depth = 0 }
let limits_of b = b.limits

let check_payload b ~loc size =
  let cap = b.limits.max_payload_bytes in
  if cap > 0 && size > cap then
    Diag.raise_fatal ~loc ~code:resource_exhausted
      "input of %d bytes exceeds the payload limit of %d bytes" size cap

let tick_op b ~loc =
  b.ops <- b.ops + 1;
  let cap = b.limits.max_ops in
  if cap > 0 && b.ops > cap then
    Diag.raise_fatal ~loc ~code:resource_exhausted
      "operation limit of %d exceeded" cap;
  let dl = b.limits.deadline_ns in
  if Int64.compare dl 0L > 0 && Int64.compare (Monotonic.now_ns ()) dl > 0 then
    Diag.raise_fatal ~loc ~code:deadline_exceeded
      "deadline exceeded after %d operations" b.ops

(* The failed entry is not counted: a rejected [enter_region] has no
   matching [leave_region] (the raise skips the protected body), so
   counting it would leak a level and make the budget drift. *)
let enter_region b ~loc =
  let cap = b.limits.max_depth in
  if cap > 0 && b.depth + 1 > cap then
    Diag.raise_fatal ~loc ~code:resource_exhausted
      "region nesting depth limit of %d exceeded" cap;
  b.depth <- b.depth + 1

let leave_region b = b.depth <- b.depth - 1
let ops_used b = b.ops
