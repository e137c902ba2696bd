(* Benchmark driver: one workload, one run, one result line.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--cli PATH] [--spawned-at T] [--setup-only]

   With --trace 0 it measures the end-to-end metrics; with --trace 1 it
   runs the workload's traced rebuild and reports the per-layer ones.
   The last line of stdout is the result object; the line before it is
   a detail object (fingerprint, speed probes, sample counts and the
   workload-specific figures). *)

open Perfbench

let workloads = [ "fuzz"; "reduce"; "juliet"; "serve" ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;
  spawned_at : float option;
  setup_only : bool;
}

let parse argv =
  let a =
    ref
      {
        workload = "";
        seed = 1;
        seconds = 10.;
        trace = false;
        cli = "_build/default/bin/compdiff_cli.exe";
        spawned_at = None;
        setup_only = false;
      }
  in
  let rec go = function
    | "--workload" :: v :: r -> a := { !a with workload = v }; go r
    | "--seed" :: v :: r -> a := { !a with seed = int_of_string v }; go r
    | "--seconds" :: v :: r -> a := { !a with seconds = float_of_string v }; go r
    | "--trace" :: v :: r -> a := { !a with trace = int_of_string v <> 0 }; go r
    | "--cli" :: v :: r -> a := { !a with cli = v }; go r
    | "--spawned-at" :: v :: r -> a := { !a with spawned_at = Some (float_of_string v) }; go r
    | "--setup-only" :: r -> a := { !a with setup_only = true }; go r
    | [] -> ()
    | x :: _ -> failwith ("unknown argument " ^ x)
  in
  go (List.tl (Array.to_list argv));
  if not (List.mem !a.workload workloads) then
    failwith ("--workload must be one of " ^ String.concat ", " workloads);
  if !a.seconds <= 0. then failwith "--seconds must be positive";
  !a

(* Set-up time is measured from process start, so it includes module
   initialisation; [spawned_at] is the wall clock at spawn.  Without it
   the clock starts when this module initialises. *)
let started_at = Unix.gettimeofday ()

let since_spawn (a : args) =
  Unix.gettimeofday () -. Option.value a.spawned_at ~default:started_at

(* Re-run this executable in --setup-only mode and read back its
   set-up time: extra set-up samples for the median. *)
let setup_sample (a : args) =
  let argv =
    [|
      Sys.executable_name; "--workload"; a.workload; "--seed"; string_of_int a.seed; "--setup-only";
      "--spawned-at"; Printf.sprintf "%.6f" (Unix.gettimeofday ());
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> float_of_string (String.trim out)
  | _ -> failwith "set-up sample process failed"

type 'st workload = {
  setup : Common.ctx -> 'st;
  measure : Common.ctx -> 'st -> Report.outcome;
  traced : Common.ctx -> 'st -> Report.outcome;
}

let extra_setup_samples = 8

let run_with (a : args) (ctx : Common.ctx) (w : 'st workload) =
  if a.setup_only then begin
    ignore (w.setup ctx);
    Printf.printf "%.9f\n" (since_spawn a);
    exit 0
  end;
  let st = w.setup ctx in
  let own = since_spawn a in
  let samples =
    if a.trace then [] else List.init extra_setup_samples (fun _ -> setup_sample a)
  in
  (own :: samples, fun () -> if a.trace then w.traced ctx st else w.measure ctx st)

let () =
  try
    let a = parse Sys.argv in
    let ctx = { Common.seed = a.seed; seconds = a.seconds; trace = a.trace } in
    let setup_samples, work, peak_rss =
      match a.workload with
      | "fuzz" ->
          let s, w = run_with a ctx { setup = W_fuzz.setup; measure = W_fuzz.measure; traced = W_fuzz.traced } in
          (s, w, fun () -> Host.peak_rss_mb ())
      | "juliet" ->
          let s, w = run_with a ctx { setup = W_juliet.setup; measure = W_juliet.measure; traced = W_juliet.traced } in
          (s, w, fun () -> Host.peak_rss_mb ())
      | "reduce" ->
          let s, w = run_with a ctx { setup = W_reduce.setup; measure = W_reduce.measure; traced = W_reduce.traced } in
          (s, w, fun () -> Host.peak_rss_mb ())
      | _ ->
          (* the daemon's own start-up is the set-up; it is repeated in
             this process rather than in extra processes *)
          let st = W_serve.setup ctx ~cli:a.cli in
          ( st.W_serve.setup_samples,
            (fun () -> if a.trace then W_serve.traced ctx st else W_serve.measure ctx st),
            fun () -> W_serve.daemon_rss st )
    in
    let probe_before = Host.probe_s () in
    let o = work () in
    let probe_after = Host.probe_s () in
    let rss = peak_rss () in
    let setup_s = Report.median (Array.of_list setup_samples) in
    let metrics, not_exercised =
      if a.trace then Layers.complete o.Report.metrics
      else
        ( [ Report.metric "setup_s" "s" setup_s ]
          @ o.Report.metrics
          @ [ Report.metric "peak_rss_mb" "MB" rss ],
          [] )
    in
    let o = { o with Report.metrics } in
    let detail =
      Report.Obj
        ([
           ("workload", Report.Str a.workload);
           ("seed", Report.Int a.seed);
           ("seconds", Report.Num a.seconds);
           ("trace", Report.Bool a.trace);
           ("fingerprint", Host.fingerprint ());
           ("probe_before_s", Report.Num probe_before);
           ("probe_after_s", Report.Num probe_after);
           ("setup_samples_s", Report.Arr (List.map (fun x -> Report.Num x) setup_samples));
           ("peak_rss_mb", Report.Num rss);
           ( "failed_share",
             Report.figure ~unit_:"share" ~n:o.Report.attempted
               (float_of_int o.Report.failed /. float_of_int (max 1 o.Report.attempted)) );
           ("not_exercised", Report.Arr (List.map (fun s -> Report.Str s) not_exercised));
         ]
        @ o.Report.detail)
    in
    print_endline (Report.to_string (Report.Obj [ ("detail", detail) ]));
    print_endline (Report.to_string (Report.result_json o));
    exit (if o.Report.correct then 0 else 1)
  with
  | Failure m | Invalid_argument m ->
      prerr_endline ("bench: " ^ m);
      exit 2
