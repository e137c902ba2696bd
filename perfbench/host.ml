(* Machine facts recorded beside the metrics: the fingerprint, a
   fixed-work speed probe, and peak resident memory. *)

(* A fixed integer loop.  Timed before and after each run, it tells a
   run that landed on a slow virtual CPU apart from a regression. *)
let probe_s () =
  let t0 = Perfbench.Span.now () in
  let x = ref 0x2545F491 in
  for i = 1 to 20_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17) + i
  done;
  ignore (Sys.opaque_identity !x);
  Perfbench.Span.now () -. t0

(* VmHWM of a process, in MB (Linux). *)
let peak_rss_mb ?(pid = "self") () : float =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec go () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      let v = go () in
      close_in ic;
      v

(* The commit the checkout was made from, when it still carries its
   git metadata; a source tarball has none. *)
let git_rev () =
  let read p = try Some (String.trim (In_channel.with_open_bin p In_channel.input_all)) with _ -> None in
  match read ".git/HEAD" with
  | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " ->
      Option.value ~default:"unknown"
        (read (Filename.concat ".git" (String.sub h 5 (String.length h - 5))))
  | Some h -> h
  | None -> "unknown"

let fingerprint () : Perfbench.Report.json =
  let open Perfbench.Report in
  Obj
    [
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("ocaml", Str Sys.ocaml_version);
      ("git_rev", Str (git_rev ()));
      ("effective_jobs", Int (Cdutil.Pool.default_jobs ()));
      ( "compdiff_jobs_env",
        match Sys.getenv_opt "COMPDIFF_JOBS" with Some s -> Str s | None -> Null );
    ]
