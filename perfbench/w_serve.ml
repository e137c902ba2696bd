(* serve: a [compdiff serve] daemon with default settings in its own
   process, driven by this process over two connections in a closed
   loop (each connection sends its next check once the previous reply
   is in).  The seeded request mix straddles the daemon's caches:
   mostly repeated (program, input) pairs on warm programs (store
   reads), some fresh inputs on warm programs (execute and store), and
   a few programs from a cold pool larger than the warm-oracle table
   (compile x10, evict). *)

open Perfbench

let connections = 2
let warm_programs = 24  (* below the default warm-oracle table of 32 *)
let inputs_per_warm = 4
let share_hit = 0.94
let share_fresh = 0.05  (* the rest, 1%, are cold *)

type cls = Hit | Fresh | Cold

let cls_name = function Hit -> "hit" | Fresh -> "fresh" | Cold -> "cold"

type program = { src : string; inputs : string array }

type state = {
  cli : string;
  seed : int;
  warm : program array;
  cold : program array;
  mutable daemon : (int * string) option;  (** pid, socket path *)
  setup_samples : float list;
}

(* --- the request pool --- *)

let random_bytes st n = String.init n (fun _ -> Char.chr (Random.State.int st 256))

(* The pool is the same for every seed; the seed draws the requests.
   Warm: 12 registry targets and 12 Juliet programs.  Cold: 48 other
   Juliet programs, so every cold request compiles a program of about
   the same size — a registry target compiles ten times slower, and
   letting the seed decide how many of those are cold would make the
   seed, not the daemon, set the figure. *)
let pool () =
  let st = Random.State.make [| 0x5e7e |] in
  let prog (src, ins) =
    let ins = Array.of_list ins in
    {
      src = Minic.Pretty.program_to_string src;
      inputs =
        Array.init inputs_per_warm (fun k ->
            if k < Array.length ins then ins.(k) else random_bytes st (1 + Random.State.int st 8));
    }
  in
  let registry =
    List.filteri (fun i _ -> i < warm_programs / 2) Projects.Registry.all
    |> List.map (fun (p : Projects.Project.t) ->
           ( p.Projects.Project.program,
             p.Projects.Project.seeds
             @ List.map (fun (b : Projects.Project.seeded_bug) -> b.Projects.Project.witness) p.Projects.Project.bugs ))
  in
  let juliet =
    List.map
      (fun (t : Juliet.Testcase.t) -> (t.Juliet.Testcase.bad, t.Juliet.Testcase.inputs))
      (Juliet.Suite.quick ~per_cwe:3 ())
  in
  (* every fifth of the 60 programs (12, one per 5) is warm *)
  let warm_juliet = List.filteri (fun i _ -> i mod 5 = 0) juliet in
  let cold = List.filteri (fun i _ -> i mod 5 <> 0) juliet in
  ( Array.of_list (List.map prog (registry @ warm_juliet)),
    Array.of_list (List.map prog cold) )

(* Request [k] of the run, a pure function of (seed, k), so the mix
   does not depend on which connection sends it. *)
let request (st : state) k : cls * string * string =
  let r = Random.State.make [| st.seed; k |] in
  let u = Random.State.float r 1. in
  if u < share_hit then
    let p = st.warm.(Random.State.int r warm_programs) in
    (Hit, p.src, p.inputs.(Random.State.int r inputs_per_warm))
  else if u < share_hit +. share_fresh then
    let p = st.warm.(Random.State.int r warm_programs) in
    (Fresh, p.src, Printf.sprintf "%d:%s" k (random_bytes r 6))
  else
    let p = st.cold.(Random.State.int r (Array.length st.cold)) in
    (Cold, p.src, p.inputs.(0))

(* --- the daemon --- *)

let run_dir = "perfbench/.run"

let spawn_daemon cli k =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let sock = Printf.sprintf "%s/d%d-%d.sock" run_dir (Unix.getpid ()) k in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process cli [| cli; "serve"; "--socket"; sock; "--quiet" |] devnull devnull Unix.stderr
  in
  Unix.close devnull;
  (pid, sock)

let live : (int * string) list ref = ref []

let stop_daemon (pid, sock) =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  live := List.filter (fun (p, _) -> p <> pid) !live

let () = at_exit (fun () -> List.iter stop_daemon !live)

let connect (pid, sock) =
  let deadline = Common.now () +. 60. in
  let rec go () =
    match Serve.Client.connect sock with
    | cl -> cl
    | exception (Unix.Unix_error _ as e) ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "serve daemon exited during start-up");
        if Common.now () > deadline then raise e;
        Thread.delay 0.002;
        go ()
  in
  go ()

let check cl (src, input) =
  Serve.Client.check cl ~source:src ~inputs:[ input ] ()

(* Start a daemon and make it ready for the timed mix: handshake, then
   one check of every warm (program, input) pair. *)
let start (st : state) k =
  let d = spawn_daemon st.cli k in
  live := d :: !live;
  let cl = connect d in
  Array.iter
    (fun p ->
      Array.iter
        (fun input ->
          match check cl (p.src, input) with
          | Ok _ -> ()
          | Error m -> failwith ("warm-up check failed: " ^ m))
        p.inputs)
    st.warm;
  Serve.Client.close cl;
  d

let setup_runs = 7

let setup (c : Common.ctx) ~cli : state =
  let warm, cold = pool () in
  let st = { cli; seed = c.seed; warm; cold; daemon = None; setup_samples = [] } in
  let samples =
    List.init setup_runs (fun k ->
        Option.iter stop_daemon st.daemon;
        let t0 = Common.now () in
        st.daemon <- Some (start st k);
        Common.now () -. t0)
  in
  { st with setup_samples = samples }

(* --- the closed loop --- *)

type answer = { k : int; lat_ms : float; reply : (Serve.Proto.verdict list, string) result }

(* Run the mix on [connections] threads until [seconds] have passed or
   [limit] requests were sent. *)
let drive (st : state) ~seconds ~limit =
  let d = Option.get st.daemon in
  let next = Atomic.make 0 in
  let t0 = Common.now () in
  let worker () =
    let cl = connect d in
    let out = ref [] in
    let rec loop () =
      if Common.now () -. t0 < seconds then begin
        let k = Atomic.fetch_and_add next 1 in
        if k < limit then begin
          let _, src, input = request st k in
          let s = Common.now () in
          let reply = check cl (src, input) in
          out := { k; lat_ms = (Common.now () -. s) *. 1000.; reply } :: !out;
          loop ()
        end
      end
    in
    loop ();
    Serve.Client.close cl;
    !out
  in
  let results = Array.make connections [] in
  let threads = Array.init connections (fun i -> Thread.create (fun () -> results.(i) <- worker ()) ()) in
  Array.iter Thread.join threads;
  let wall = Common.now () -. t0 in
  let answers = Array.of_list (List.concat (Array.to_list results)) in
  Array.sort (fun a b -> compare a.k b.k) answers;
  (answers, wall)

(* Reference verdicts from the naive sequential oracle on this side of
   the socket, one oracle per distinct program. *)
let reference () =
  let oracles = Hashtbl.create 64 and verdicts = Hashtbl.create 1024 in
  fun (src, input) ->
    match Hashtbl.find_opt verdicts (src, input) with
    | Some v -> v
    | None ->
        let o =
          match Hashtbl.find_opt oracles src with
          | Some o -> o
          | None ->
              let tp =
                match Minic.frontend_of_source src with
                | Ok tp -> tp
                | Error m -> failwith ("pool program does not parse: " ^ m)
              in
              let o = Compdiff.Oracle.create ~fuel:200_000 tp in
              Hashtbl.add oracles src o;
              o
        in
        let v = Serve.Scheduler.verdict_to_proto (Compdiff.Oracle.check_naive o ~input) in
        Hashtbl.add verdicts (src, input) v;
        v

(* Busy and Err replies count as failed; so does a verdict that
   differs from the reference. *)
let score st ref_ answers =
  let refused = ref 0 and wrong = ref 0 in
  Array.iter
    (fun a ->
      let _, src, input = request st a.k in
      match a.reply with
      | Ok [ v ] -> if v <> ref_ (src, input) then incr wrong
      | Ok _ -> incr wrong
      | Error _ -> incr refused)
    answers;
  (!refused, !wrong)

let divergent answers =
  Array.fold_left
    (fun n a -> match a.reply with Ok [ Serve.Proto.V_diverge _ ] -> n + 1 | _ -> n)
    0 answers

let daemon_rss st = Host.peak_rss_mb ~pid:(string_of_int (fst (Option.get st.daemon))) ()

let measure (c : Common.ctx) (st : state) : Report.outcome =
  let answers, wall = drive st ~seconds:c.seconds ~limit:max_int in
  let n = Array.length answers in
  let refused, wrong = score st (reference ()) answers in
  let lat = Array.map (fun a -> a.lat_ms) answers in
  let failed = refused + wrong in
  {
    Report.correct = wrong = 0;
    attempted = n;
    failed;
    metrics = [ Report.metric "throughput_per_s" "1/s" (float_of_int (n - refused) /. wall) ];
    detail =
      [
        ("op", Report.Str "check request answered (one program, one input)");
        ("window_s", Report.Num wall);
        ("requests", Report.Int n);
        ("refused", Report.Int refused);
        ("wrong_verdicts", Report.Int wrong);
        ( "findings_per_s",
          Report.figure ~unit_:"1/s" ~n:(divergent answers) (float_of_int (divergent answers) /. wall) );
        ("latency_ms", Report.latency_json lat);
        ("connections", Report.Int connections);
        ("loop", Report.Str "closed");
      ];
  }

(* --- traced run: per-class client latencies plus the daemon's stats --- *)

(* The same requests on three fresh daemons — untraced, traced,
   untraced — must get the same replies. *)

(* The number after ["key": ] inside the object that follows
   ["section": ], in a JSON text the daemon rendered. *)
let json_num ?section text key =
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then raise Not_found
      else if String.sub text i n = sub then i + n
      else go (i + 1)
    in
    go from
  in
  let from = match section with Some s -> find ("\"" ^ s ^ "\"") 0 | None -> 0 in
  let i = find ("\"" ^ key ^ "\":") from in
  let j = ref i in
  while !j < String.length text && String.contains " -+.eE0123456789" text.[!j] do incr j done;
  float_of_string (String.trim (String.sub text i (!j - i)))

let traced_requests = 4_000

let traced (_ : Common.ctx) (st : state) : Report.outcome =
  let run () =
    Option.iter stop_daemon st.daemon;
    st.daemon <- Some (start st 9);
    drive st ~seconds:infinity ~limit:traced_requests
  in
  let plain, p1 = run () in
  let answers, traced_s = run () in
  let stats =
    let cl = connect (Option.get st.daemon) in
    Fun.protect ~finally:(fun () -> Serve.Client.close cl) (fun () -> Serve.Client.stats cl)
  in
  let stats = match stats with Some s -> s | None -> failwith "Get_stats failed" in
  let plain2, p2 = run () in
  let ref_ = reference () in
  let refused, wrong = score st ref_ answers in
  let agree x y =
    Array.length x = Array.length y && Array.for_all2 (fun a b -> a.k = b.k && a.reply = b.reply) x y
  in
  let same = agree plain answers && agree plain2 answers in
  let class_p50 c =
    let xs =
      Array.of_list
        (List.filter_map
           (fun a ->
             let k, _, _ = request st a.k in
             if k = c then Some a.lat_ms else None)
           (Array.to_list answers))
    in
    (Array.length xs, if xs = [||] then 0. else Report.median xs)
  in
  let sess = stats.Serve.Proto.st_session and sc = stats.Serve.Proto.st_sched in
  let num ?section key = json_num ?section sess key in
  let per_class = List.map (fun c -> (c, class_p50 c)) [ Hit; Fresh; Cold ] in
  let metrics =
    List.map (fun (c, (_, p50)) -> Report.metric ("serve." ^ cls_name c ^ "_p50_ms") "ms" p50) per_class
    @ [
        Report.metric "sched.flights" "count" (float_of_int sc.Serve.Proto.sr_flights);
        Report.metric "sched.checks_per_flight" "checks/flight"
          (Common.ratio (float_of_int sc.Serve.Proto.sr_checks) (float_of_int sc.Serve.Proto.sr_flights));
        Report.metric "sched.joined" "count" (float_of_int sc.Serve.Proto.sr_joined);
        Report.metric "sched.shed" "count" (float_of_int sc.Serve.Proto.sr_shed);
        Report.metric "sched.warm_oracles" "count" (float_of_int sc.Serve.Proto.sr_oracles);
        Report.metric "engine.unit_hit_rate" "ratio" (num ~section:"units" "hit_rate");
        Report.metric "engine.image_hit_rate" "ratio" (num ~section:"images" "hit_rate");
        Report.metric "engine.unit_evictions" "count" (num ~section:"units" "evictions");
        Report.metric "engine.obs_hit_rate" "ratio" (num ~section:"observations" "hit_rate");
        Report.metric "engine.obs_evictions" "count" (num ~section:"observations" "evictions");
        Report.metric "engine.key_s" "s" (num "key_seconds");
        Report.metric "oracle.checks" "count" (json_num stats.Serve.Proto.st_oracle "checks");
        Report.metric "oracle.vm_execs" "count" (json_num stats.Serve.Proto.st_oracle "vm_execs");
        Report.metric "oracle.execs_per_check" "execs/check"
          (Common.ratio (json_num stats.Serve.Proto.st_oracle "vm_execs")
             (json_num stats.Serve.Proto.st_oracle "checks"));
        Report.metric "oracle.dedup_saved" "count" (json_num stats.Serve.Proto.st_oracle "dedup_saved");
        Report.metric "oracle.escalation_saved" "count"
          (json_num stats.Serve.Proto.st_oracle "escalation_saved");
        Report.metric "trace.overhead_s" "s" (traced_s -. ((p1 +. p2) /. 2.));
      ]
  in
  let failed = refused + wrong + if same then 0 else 1 in
  {
    Report.correct = wrong = 0 && same;
    attempted = Array.length answers;
    failed;
    metrics;
    detail =
      [
        ("traced_requests", Report.Int (Array.length answers));
        ("untraced_s", Report.Arr [ Report.Num p1; Report.Num p2 ]);
        ("traced_s", Report.Num traced_s);
        ("results_identical", Report.Bool same);
        ( "class_samples",
          Report.Obj (List.map (fun (c, (n, _)) -> (cls_name c, Report.Int n)) per_class) );
        ("daemon_stats", Report.Str (Serve.Client.stats_to_json stats));
        ("note", Report.Str "daemon-side layers are read from Get_stats; the client times only whole requests");
      ];
  }
