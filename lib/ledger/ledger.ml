(* Named counters per request (see the interface for the model).

   A counter is a slot in a process-wide registry; a ledger is a
   growable array of values by slot behind its own mutex, so the tasks
   of one request add to it from any domain.  Counts are stored as
   floats beside the seconds and maxima: exact below 2^53. *)

type kind = Count | Seconds | Max
type counter = { section : string; name : string; kind : kind; slot : int }

(* newest first; slots number the declarations from 0 *)
let registry : counter list ref = ref []
let registry_lock = Mutex.create ()

let counter ?(kind = Count) section name =
  Mutex.protect registry_lock (fun () ->
      let c = { section; name; kind; slot = List.length !registry } in
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

let rec bump l c x =
  Mutex.protect l.lock (fun () ->
      let n = Array.length l.values in
      if c.slot >= n then
        l.values <- Array.append l.values (Array.make (c.slot + 1 - n) 0.0);
      let v = l.values.(c.slot) in
      l.values.(c.slot) <-
        (if c.kind <> Max then v +. x else if x > v then x else v));
  Option.iter (fun p -> bump p c x) l.parent

(* a zero neither adds nor raises a maximum above its initial 0 *)
let add_float c x =
  if x <> 0.0 then bump (Option.value (current ()) ~default:process) c x

let add c n = add_float c (float_of_int n)

let get_float l c =
  Mutex.protect l.lock (fun () ->
      if c.slot < Array.length l.values then l.values.(c.slot) else 0.0)

let get l c = int_of_float (get_float l c)

type value = Int of int | Float of float

let fields l section =
  List.rev (Mutex.protect registry_lock (fun () -> !registry))
  |> List.filter (fun c -> String.equal c.section section)
  |> List.map (fun c ->
         ( c.name,
           match c.kind with
           | Count -> Int (get l c)
           | Seconds | Max -> Float (get_float l c) ))
