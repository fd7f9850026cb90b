(* See the interface. The registry is a single atomic holding an immutable
   list of entries; each entry carries its own atomic hit counter (for hits
   outside any document) and injection counter, so concurrent domains
   hitting the same seam count (and fire) without locks. Within a document
   the hits are counted in a list of the running domain instead, so the
   hits of one document never depend on what other domains are doing.
   [configure] swaps the whole list, which is safe against concurrent
   [hit]s: a hit either sees the old entries or the new ones. *)

exception Injected of string

let seams = [ "parse"; "verify"; "bytecode.decode"; "pool.task" ]

type entry = {
  fp_name : string;
  fp_every : int;  (* fire on every [fp_every]-th hit; 1 = always *)
  fp_hits : int Atomic.t;
  fp_injected : int Atomic.t;
}

let registry : entry list Atomic.t = Atomic.make []

(* Fast-path guard: [hit] loads only this when nothing is armed. *)
let any_armed = Atomic.make false

let clear () =
  Atomic.set registry [];
  Atomic.set any_armed false

let parse_entry s =
  match String.index_opt s ':' with
  | None ->
      if s = "" then Error "empty failpoint name"
      else Ok (s, 1)
  | Some i -> (
      let name = String.sub s 0 i in
      let k = String.sub s (i + 1) (String.length s - i - 1) in
      if name = "" then Error "empty failpoint name"
      else
        match int_of_string_opt k with
        | Some k when k >= 1 -> Ok (name, k)
        | _ -> Error (Printf.sprintf "bad failpoint period '%s' (want an integer >= 1)" k))

let configure spec =
  let parts =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: tl -> (
        match parse_entry p with
        | Ok (name, every) ->
            go
              ({
                 fp_name = name;
                 fp_every = every;
                 fp_hits = Atomic.make 0;
                 fp_injected = Atomic.make 0;
               }
              :: acc)
              tl
        | Error _ as e -> e)
  in
  match go [] parts with
  | Error _ as e -> e
  | Ok entries ->
      Atomic.set registry entries;
      Atomic.set any_armed (entries <> []);
      Ok ()

let active () = Atomic.get any_armed

let find name =
  List.find_opt (fun e -> e.fp_name = name) (Atomic.get registry)

(* The hit counts of the document running on this domain, keyed by entry
   (physically, so a new configuration starts from zero); [None] outside
   any document. *)
let document : (entry * int ref) list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let in_document f =
  let outer = Domain.DLS.get document in
  Domain.DLS.set document (Some (ref []));
  Fun.protect ~finally:(fun () -> Domain.DLS.set document outer) f

let next_hit e =
  match Domain.DLS.get document with
  | None -> Atomic.fetch_and_add e.fp_hits 1 + 1
  | Some counts -> (
      match List.assq_opt e !counts with
      | Some n ->
          incr n;
          !n
      | None ->
          counts := (e, ref 1) :: !counts;
          1)

let hit name =
  if Atomic.get any_armed then
    match find name with
    | None -> ()
    | Some e ->
        let n = next_hit e in
        if n mod e.fp_every = 0 then begin
          Atomic.incr e.fp_injected;
          raise (Injected name)
        end

let injected_count name =
  match find name with None -> 0 | Some e -> Atomic.get e.fp_injected

let armed () =
  List.map
    (fun e -> (e.fp_name, e.fp_every, Atomic.get e.fp_injected))
    (Atomic.get registry)
