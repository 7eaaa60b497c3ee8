(* Named counters per request (see the interface for the model).

   A counter is a slot in a process-wide registry; a ledger is a
   growable array of values by slot behind its own mutex, so the tasks
   of one request add to it from any domain.  Counts are stored as
   floats beside the seconds: exact below 2^53. *)

type counter = { section : string; name : string; seconds : bool; slot : int }

(* newest first; slots number the declarations from 0 *)
let registry : counter list ref = ref []
let registry_lock = Mutex.create ()

let counter ?(seconds = false) section name =
  Mutex.protect registry_lock (fun () ->
      let c = { section; name; seconds; slot = List.length !registry } in
      registry := c :: !registry;
      c)

type t = { parent : t option; lock : Mutex.t; mutable values : float array }

let make parent = { parent; lock = Mutex.create (); values = [||] }
let process = make None
let current_key = Domain.DLS.new_key (fun () -> None)
let current () : t option = Domain.DLS.get current_key

let within l f =
  let prev = current () in
  Domain.DLS.set current_key l;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key prev) f

let create () = make (Some (Option.value (current ()) ~default:process))

let run f =
  let l = create () in
  let r = within (Some l) f in
  (r, l)

let rec bump l slot x =
  Mutex.protect l.lock (fun () ->
      let n = Array.length l.values in
      if slot >= n then
        l.values <- Array.append l.values (Array.make (slot + 1 - n) 0.0);
      l.values.(slot) <- l.values.(slot) +. x);
  Option.iter (fun p -> bump p slot x) l.parent

let add_seconds c x =
  if x <> 0.0 then bump (Option.value (current ()) ~default:process) c.slot x

let add c n = add_seconds c (float_of_int n)

let get_seconds l c =
  Mutex.protect l.lock (fun () ->
      if c.slot < Array.length l.values then l.values.(c.slot) else 0.0)

let get l c = int_of_float (get_seconds l c)

type value = Count of int | Seconds of float

let fields l section =
  List.rev (Mutex.protect registry_lock (fun () -> !registry))
  |> List.filter (fun c -> String.equal c.section section)
  |> List.map (fun c ->
         ( c.name,
           if c.seconds then Seconds (get_seconds l c) else Count (get l c) ))
