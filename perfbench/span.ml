(* In-memory spans around calls into the program's layers, timed from
   outside on a monotonic clock.  A span's self time is its duration
   minus the time its direct children cover; spans are recorded on one
   thread, so children never overlap and their union is their sum. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  parent : int;  (** [-1] at the root *)
  name : string;
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list;  (** finished spans, newest first *)
  mutable stack : int list;  (** open span ids, innermost first *)
  mutable next : int;
}

let create () = { spans = []; stack = []; next = 0 }

let record (t : t) name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let t0 = now () in
  let finish () =
    let t1 = now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; name; t0; t1 } :: t.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

type totals = { count : int; total_s : float; self_s : float }

(* Per span name: how often it ran, its total and its self time. *)
let totals (t : t) : (string * totals) list =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child_time s.parent) in
        Hashtbl.replace child_time s.parent (prev +. (s.t1 -. s.t0)))
    t.spans;
  let acc = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id) in
      match Hashtbl.find_opt acc s.name with
      | None ->
          order := s.name :: !order;
          Hashtbl.replace acc s.name { count = 1; total_s = d; self_s = self }
      | Some a ->
          Hashtbl.replace acc s.name
            { count = a.count + 1; total_s = a.total_s +. d; self_s = a.self_s +. self })
    (List.rev t.spans);
  List.rev_map (fun n -> (n, Hashtbl.find acc n)) !order

let find (l : (string * totals) list) name =
  Option.value ~default:{ count = 0; total_s = 0.; self_s = 0. } (List.assoc_opt name l)
