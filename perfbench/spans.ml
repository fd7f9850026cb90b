(* In-memory spans around calls into each layer, recorded by the traced run.

   A span has a name ("layer" or "layer.detail"), a monotonic start and
   end, the span that caused it (its parent; across domains for pool
   tasks), a chunk or request id, and the domain it ran on. Each domain
   keeps its own list, so recording takes no lock; the lists are read once
   the worker domains have joined. When disabled, [with_span] is a plain
   call: the untraced run executes the same code. *)

module Monotonic = Irdl_support.Monotonic

type span = {
  sid : int;
  name : string;
  t0 : int64;
  mutable t1 : int64;
  parent : int;
  id : int;
  tid : int;
}

let enabled = ref false
let next_sid = Atomic.make 0
let lock = Mutex.create ()

type domain_state = { mutable stack : span list; mutable closed : span list }

let registry : domain_state list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let st = { stack = []; closed = [] } in
      Mutex.protect lock (fun () -> registry := st :: !registry);
      st)

let current () =
  match (Domain.DLS.get key).stack with s :: _ -> s.sid | [] -> -1

let with_span ?parent ?(id = -1) name f =
  if not !enabled then f ()
  else begin
    let st = Domain.DLS.get key in
    let parent =
      match parent with
      | Some p -> p
      | None -> ( match st.stack with s :: _ -> s.sid | [] -> -1)
    in
    let sp =
      {
        sid = Atomic.fetch_and_add next_sid 1;
        name;
        t0 = Monotonic.now_ns ();
        t1 = 0L;
        parent;
        id;
        tid = (Domain.self () :> int);
      }
    in
    st.stack <- sp :: st.stack;
    let close () =
      sp.t1 <- Monotonic.now_ns ();
      st.stack <- List.tl st.stack;
      st.closed <- sp :: st.closed
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

let all () =
  Mutex.protect lock (fun () -> List.concat_map (fun st -> st.closed) !registry)
  |> List.sort (fun a b -> compare a.sid b.sid)

let layer s =
  match String.index_opt s.name '.' with
  | Some i -> String.sub s.name 0 i
  | None -> s.name

let seconds ns = Int64.to_float ns /. 1e9
let duration s = seconds (Int64.sub s.t1 s.t0)

(* Wall-clock self time per layer. Each instant is shared evenly among the
   domains that are inside some span at that instant, and each domain's
   share goes to its innermost open span: on one domain this is the usual
   "duration minus the part covered by children"; with parallel tasks the
   shares still add up to the wall time the spans cover. *)
let self_times spans =
  let events =
    List.concat_map (fun s -> [ (s.t0, 1, s); (s.t1, 0, s) ]) spans
    |> List.sort (fun (t, k, s) (t', k', s') ->
           match Int64.compare t t' with
           | 0 -> ( match compare k k' with 0 -> compare s.sid s'.sid | c -> c)
           | c -> c)
  in
  let stacks = Hashtbl.create 4 in
  let self = Hashtbl.create 16 in
  let add name dt =
    Hashtbl.replace self name
      (dt +. Option.value (Hashtbl.find_opt self name) ~default:0.)
  in
  let prev = ref 0L in
  List.iter
    (fun (t, kind, s) ->
      let active =
        Hashtbl.fold (fun _ st acc -> if st = [] then acc else st :: acc) stacks []
      in
      (match active with
      | [] -> ()
      | _ ->
          let dt = seconds (Int64.sub t !prev) /. float (List.length active) in
          List.iter (fun st -> add (layer (List.hd st)) dt) active);
      prev := t;
      let st = Option.value (Hashtbl.find_opt stacks s.tid) ~default:[] in
      Hashtbl.replace stacks s.tid
        (if kind = 1 then s :: st else List.filter (fun x -> x != s) st))
    events;
  self

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing open. *)
let write_chrome path spans =
  let origin =
    List.fold_left (fun m s -> if Int64.compare s.t0 m < 0 then s.t0 else m)
      Int64.max_int spans
  in
  let us t = Int64.to_float (Int64.sub t origin) /. 1e3 in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"ts\": %.3f, \"dur\": \
         %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"sid\": %d, \"parent\": \
         %d, \"id\": %d}}"
        (if i = 0 then "" else ",\n")
        s.name (layer s) (us s.t0)
        (us s.t1 -. us s.t0)
        s.tid s.sid s.parent s.id)
    spans;
  output_string oc "\n]}\n";
  close_out oc
