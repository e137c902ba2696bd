(* Result document of one benchmark run: a tiny JSON writer, the
   percentile rule, and the final line the benchmark prints. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Every digit as measured: %.17g round-trips a double.  JSON has no
   NaN or infinity, so a non-finite value is a bug in the caller. *)
let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else invalid_arg "Report.num_to_string: non-finite value"

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Num f -> num_to_string f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kv ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kv)
      ^ "}"

(* --- percentiles --- *)

(* Nearest-rank percentile of [xs], but only when at least [min_beyond]
   samples lie strictly beyond its rank: a tail read off fewer samples
   than that is noise, so it is withheld rather than printed. *)
let percentile ?(min_beyond = 10) ~p (xs : float array) : float option =
  let n = Array.length xs in
  if n = 0 || p <= 0. || p >= 100. then None
  else begin
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    let rank = max 1 (min n rank) in
    if n - rank < min_beyond then None
    else begin
      let s = Array.copy xs in
      Array.sort Float.compare s;
      Some s.(rank - 1)
    end
  end

let median (xs : float array) : float =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Report.median: no samples";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* A figure of the detail block: value, unit and sample count. *)
let figure ~unit_ ~n value = Obj [ ("value", Num value); ("unit", Str unit_); ("n", Int n) ]

(* A latency distribution as the detail block prints it: every
   percentile that has enough samples beyond it, and always n. *)
let latency_json (ms : float array) : json =
  let pct name p =
    match percentile ~p ms with
    | Some v -> [ (name, Num v) ]
    | None -> []
  in
  Obj
    ([ ("n", Int (Array.length ms)); ("unit", Str "ms") ]
    @ pct "p50" 50. @ pct "p90" 90. @ pct "p99" 99.)

(* --- the result line --- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  detail : (string * json) list;
}

let result_json (o : outcome) : json =
  Obj
    [
      ("correct", Bool o.correct);
      ("attempted", Int o.attempted);
      ("failed", Int o.failed);
      ( "metrics",
        Obj
          (List.map
             (fun m -> (m.name, Obj [ ("value", Num m.value); ("unit", Str m.unit_) ]))
             o.metrics) );
    ]
