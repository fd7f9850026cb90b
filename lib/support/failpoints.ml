(* See the interface. The registry is a single atomic holding an immutable
   list of entries; each entry carries its own atomic hit counter, so
   concurrent domains hitting the same seam count (and fire) without locks.
   [configure] swaps the whole list, which is safe against concurrent
   [hit]s: a hit either sees the old entries or the new ones. *)

exception Injected of string

type entry = {
  fp_name : string;
  fp_every : int;  (* fire on every [fp_every]-th hit; 1 = always *)
  fp_hits : int Atomic.t;
  fp_injected : int Atomic.t;
}

let registry : entry list Atomic.t = Atomic.make []

(* Fast-path guard: [hit] loads only this when nothing is armed. *)
let armed = Atomic.make false

let clear () =
  Atomic.set registry [];
  Atomic.set armed false

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
      Atomic.set armed (entries <> []);
      Ok ()

let active () = Atomic.get armed

let find name =
  List.find_opt (fun e -> e.fp_name = name) (Atomic.get registry)

let hit name =
  if Atomic.get armed then
    match find name with
    | None -> ()
    | Some e ->
        let n = Atomic.fetch_and_add e.fp_hits 1 + 1 in
        if n mod e.fp_every = 0 then begin
          Atomic.incr e.fp_injected;
          raise (Injected name)
        end

let injected_count name =
  match find name with None -> 0 | Some e -> Atomic.get e.fp_injected

let seams () =
  List.map
    (fun e -> (e.fp_name, e.fp_every, Atomic.get e.fp_injected))
    (Atomic.get registry)
