(* Tests for the engine session layer: the LRU primitive, the
   compile/link/observe caches, and the cross-validation properties the
   caches must satisfy (cached sessions are verdict-identical to the
   caching-disabled reference; the partition-based subset study matches
   the per-subset recomputation). *)

let frontend src =
  match Minic.frontend_of_source src with
  | Ok tp -> tp
  | Error msg -> Alcotest.failf "front end: %s" msg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let stable_src = "int main() { print(\"ok %d\\n\", getchar()); return 0; }"

let unstable_src =
  "int main() {\n\
   \  int l;\n\
   \  int c = getchar();\n\
   \  if (c > 64) { l = c; }\n\
   \  print(\"%d\\n\", l);\n\
   \  return 0;\n\
   }"

(* --- the LRU primitive --- *)

let test_lru_basics () =
  let l = Engine.Lru.create ~budget_bytes:1000 in
  let v =
    Engine.Lru.find_or_compute l "a" ~weight:(fun _ -> 10) (fun () -> 1)
  in
  check_int "computed" 1 v;
  let v =
    Engine.Lru.find_or_compute l "a" ~weight:(fun _ -> 10) (fun () -> 2)
  in
  check_int "cached, not recomputed" 1 v;
  let s = Engine.Lru.stats l in
  check_int "one hit" 1 s.Engine.Lru.hits;
  check_int "one miss" 1 s.Engine.Lru.misses;
  check_int "one entry" 1 s.Engine.Lru.entries;
  check_int "ten bytes" 10 s.Engine.Lru.bytes

let test_lru_eviction_lru_order () =
  let l = Engine.Lru.create ~budget_bytes:100 in
  let put k = ignore (Engine.Lru.find_or_compute l k ~weight:(fun _ -> 40) (fun () -> k)) in
  put "a";
  put "b";
  (* touch "a" so "b" is the least recently used *)
  check_bool "a cached" true (Engine.Lru.find_opt l "a" = Some "a");
  (* third insert pushes past 100 bytes: evict down to 75 *)
  put "c";
  let s = Engine.Lru.stats l in
  check_bool "evicted at least one entry" true (s.Engine.Lru.evictions >= 1);
  check_bool "within budget" true (s.Engine.Lru.bytes <= 100);
  check_bool "oldest entry (b) evicted first" true
    (Engine.Lru.find_opt l "b" = None);
  check_bool "newest entry survives" true (Engine.Lru.find_opt l "c" = Some "c")

(* --- session caches --- *)

let profile0 = List.hd Cdcompiler.Profiles.all

(* one store-backed run: a batch of one *)
let run1 s l input =
  (Engine.Session.run_batch s l ~inputs:[| input |] ~fuel:100_000).(0)

let test_unit_cache_hit () =
  let s = Engine.Session.create ~cache_mb:16 () in
  let tp = frontend stable_src in
  let u1 = Engine.Session.compile s profile0 tp in
  let u2 = Engine.Session.compile s profile0 tp in
  check_bool "second compile is the cached unit" true (u1 == u2);
  let st = Engine.Session.stats s in
  check_int "unit hit" 1 st.Engine.Session.units.Engine.Session.hits;
  check_int "unit miss" 1 st.Engine.Session.units.Engine.Session.misses;
  (* a structurally equal but physically distinct program hits too:
     keys are content hashes, not physical identity *)
  let tp' = frontend stable_src in
  let u3 = Engine.Session.compile s profile0 tp' in
  check_bool "content-addressed: equal program hits" true (u1 == u3)

let test_image_cache_and_obs_store () =
  let s = Engine.Session.create ~cache_mb:16 () in
  let tp = frontend stable_src in
  let u = Engine.Session.compile s profile0 tp in
  let l1 = Engine.Session.link s u in
  let l2 = Engine.Session.link s u in
  check_bool "re-link is the cached image" true
    (Engine.Session.image l1 == Engine.Session.image l2);
  let o1 = run1 s l1 "A" in
  let o2 = run1 s l2 "A" in
  check_bool "replay equals the stored observation" true (o1 = o2);
  Alcotest.(check string) "raw stdout" "ok 65\n" o1.Engine.Session.obs_stdout;
  let st = Engine.Session.stats s in
  check_int "one observation stored" 1
    st.Engine.Session.observations.Engine.Session.entries;
  check_int "one observation hit" 1
    st.Engine.Session.observations.Engine.Session.hits;
  (* a different input or fuel is a different key *)
  let o3 = run1 s l1 "B" in
  check_bool "different input, different observation" true (o3 <> o1);
  check_int "two observations stored" 2
    (Engine.Session.stats s).Engine.Session.observations.Engine.Session.entries

let test_disabled_session_is_passthrough () =
  let s = Engine.Session.create ~cache_mb:0 () in
  check_bool "caching off" false (Engine.Session.caching s);
  let tp = frontend stable_src in
  let u1 = Engine.Session.compile s profile0 tp in
  let u2 = Engine.Session.compile s profile0 tp in
  check_bool "recompiles every time" true (u1 != u2);
  let st = Engine.Session.stats s in
  check_int "no unit traffic counted" 0
    (st.Engine.Session.units.Engine.Session.hits
    + st.Engine.Session.units.Engine.Session.misses);
  check_bool "stats say disabled" false st.Engine.Session.caching

let test_oracle_shares_session_compiles () =
  (* two oracles over the same program on one session: the second one's
     ten compiles and links are all cache hits *)
  let s = Engine.Session.create ~cache_mb:64 () in
  let tp = frontend unstable_src in
  let o1 = Compdiff.Oracle.create ~session:s tp in
  let st1 = Engine.Session.stats s in
  let o2 = Compdiff.Oracle.create ~session:s tp in
  let st2 = Engine.Session.stats s in
  check_int "no new unit misses for the second oracle"
    st1.Engine.Session.units.Engine.Session.misses
    st2.Engine.Session.units.Engine.Session.misses;
  check_bool "ten unit hits for the second oracle" true
    (st2.Engine.Session.units.Engine.Session.hits
     >= st1.Engine.Session.units.Engine.Session.hits + 10);
  (* and their verdicts agree with each other and with a fresh oracle *)
  List.iter
    (fun input ->
      let v1 = Compdiff.Oracle.check o1 ~input in
      let v2 = Compdiff.Oracle.check o2 ~input in
      let fresh = Compdiff.Oracle.check (Compdiff.Oracle.create tp) ~input in
      check_bool "session oracles agree" true (v1 = v2);
      check_bool "matches a session-free oracle" true (v1 = fresh))
    [ ""; "A"; "Z" ]

let test_oracle_replay_hits_obs_store () =
  let s = Engine.Session.create ~cache_mb:64 () in
  let o = Compdiff.Oracle.create ~session:s (frontend unstable_src) in
  let v1 = Compdiff.Oracle.check o ~input:"" in
  let before = Engine.Session.stats s in
  let v2 = Compdiff.Oracle.check o ~input:"" in
  let after = Engine.Session.stats s in
  check_bool "replayed verdict identical" true (v1 = v2);
  check_int "replay adds no observation misses"
    before.Engine.Session.observations.Engine.Session.misses
    after.Engine.Session.observations.Engine.Session.misses;
  check_bool "replay served from the store" true
    (after.Engine.Session.observations.Engine.Session.hits
    > before.Engine.Session.observations.Engine.Session.hits)

(* --- the persistent disk cache --- *)

let temp_dir () =
  (* a unique, not-yet-existing directory name; Diskcache.create mkdirs *)
  let f = Filename.temp_file "cdc_test" "" in
  Sys.remove f;
  f

let read_whole path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_whole path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rec disk_files dir =
  List.concat_map
    (fun name ->
      let p = Filename.concat dir name in
      if Sys.is_directory p then disk_files p else [ p ])
    (Array.to_list (Sys.readdir dir))

let test_diskcache_roundtrip () =
  let dir = temp_dir () in
  let d1 = Engine.Diskcache.create ~dir () in
  Engine.Diskcache.put d1 ~kind:"t" "k1" (42, "hello");
  (* a fresh handle over the same directory = a process restart *)
  let d2 = Engine.Diskcache.create ~dir () in
  check_bool "hit across restart" true
    (Engine.Diskcache.get d2 ~kind:"t" "k1" = Some (42, "hello"));
  check_bool "unknown key is a miss" true
    ((Engine.Diskcache.get d2 ~kind:"t" "nope" : (int * string) option) = None);
  check_bool "same key under another kind is a miss" true
    ((Engine.Diskcache.get d2 ~kind:"u" "k1" : (int * string) option) = None);
  let st = Engine.Diskcache.stats d2 in
  check_int "one hit counted" 1 st.Engine.Diskcache.disk_hits;
  check_int "two misses counted" 2 st.Engine.Diskcache.disk_misses

let test_diskcache_corruption_is_miss () =
  let dir = temp_dir () in
  let d = Engine.Diskcache.create ~dir () in
  Engine.Diskcache.put d ~kind:"t" "key" "payload-value";
  let get () : string option = Engine.Diskcache.get d ~kind:"t" "key" in
  check_bool "intact entry hits" true (get () = Some "payload-value");
  let path =
    match disk_files dir with
    | [ p ] -> p
    | l -> Alcotest.failf "expected one entry file, found %d" (List.length l)
  in
  let original = read_whole path in
  (* a crashed writer can only leave a prefix (writes are tmp+rename,
     but the guard must hold for any torn file): every truncation is a
     miss, never a wrong hit *)
  List.iter
    (fun len ->
      write_whole path (String.sub original 0 len);
      check_bool (Printf.sprintf "truncated to %d bytes is a miss" len) true
        (get () = None))
    [ 0; 3; 11; String.length original - 1 ];
  (* one flipped payload byte: the checksum rejects it *)
  let b = Bytes.of_string original in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr ((Char.code (Bytes.get b last) + 1) land 0xff));
  write_whole path (Bytes.to_string b);
  check_bool "corrupt payload is a miss" true (get () = None);
  (* restoring the bytes restores the hit: the guard is the content *)
  write_whole path original;
  check_bool "restored entry hits again" true (get () = Some "payload-value")

let test_diskcache_running_counters () =
  let dir = temp_dir () in
  let d1 = Engine.Diskcache.create ~dir () in
  List.iter
    (fun k -> Engine.Diskcache.put d1 ~kind:"t" k ("value-" ^ k))
    [ "a"; "b"; "c" ];
  let on_disk () =
    let files = disk_files dir in
    ( List.length files,
      List.fold_left (fun a p -> a + (Unix.stat p).Unix.st_size) 0 files )
  in
  let entries, bytes = on_disk () in
  let st = Engine.Diskcache.stats d1 in
  check_int "entry count tracks fresh puts" entries
    st.Engine.Diskcache.disk_entries;
  check_int "byte count tracks fresh puts" bytes st.Engine.Diskcache.disk_bytes;
  (* overwriting an existing key must not inflate the running totals *)
  Engine.Diskcache.put d1 ~kind:"t" "b" "value-b";
  let st = Engine.Diskcache.stats d1 in
  check_int "overwrite leaves entry count" entries
    st.Engine.Diskcache.disk_entries;
  check_int "overwrite leaves byte count" bytes st.Engine.Diskcache.disk_bytes;
  check_int "but is still a store" 4 st.Engine.Diskcache.disk_stores;
  (* a fresh handle re-seeds the same totals from the startup scan *)
  let st2 = Engine.Diskcache.stats (Engine.Diskcache.create ~dir ()) in
  check_int "restart seeds entry count" entries
    st2.Engine.Diskcache.disk_entries;
  check_int "restart seeds byte count" bytes st2.Engine.Diskcache.disk_bytes

let test_diskcache_gc_honors_cap () =
  let dir = temp_dir () in
  let cap_bytes = 1024 * 1024 in
  let d = Engine.Diskcache.create ~dir ~cap_mb:1 () in
  (* ~300KB per entry: the 4th put crosses the 1MB cap and must trigger
     GC down to the 3/4 target without any explicit maintenance call *)
  let total = 6 in
  for k = 1 to total do
    Engine.Diskcache.put d ~kind:"big" (string_of_int k)
      (String.make 300_000 (Char.chr (64 + k)))
  done;
  let st = Engine.Diskcache.stats d in
  check_bool "byte count back under the cap" true
    (st.Engine.Diskcache.disk_bytes <= cap_bytes);
  check_bool "entries were evicted" true
    (st.Engine.Diskcache.disk_entries < total);
  check_bool "some entries survive" true
    (st.Engine.Diskcache.disk_entries > 0);
  (* the re-seeded counters agree with what is actually on disk *)
  let files = disk_files dir in
  check_int "entry count re-seeded from disk" (List.length files)
    st.Engine.Diskcache.disk_entries;
  check_int "byte count re-seeded from disk"
    (List.fold_left (fun a p -> a + (Unix.stat p).Unix.st_size) 0 files)
    st.Engine.Diskcache.disk_bytes;
  (* surviving entries still read back intact *)
  let readable = ref 0 in
  for k = 1 to total do
    match
      (Engine.Diskcache.get d ~kind:"big" (string_of_int k) : string option)
    with
    | Some v ->
      check_bool "surviving entry intact" true
        (v = String.make 300_000 (Char.chr (64 + k)));
      incr readable
    | None -> ()
  done;
  check_int "readable entries = counted entries" !readable
    st.Engine.Diskcache.disk_entries

let test_session_disk_restart () =
  let dir = temp_dir () in
  let tp = frontend unstable_src in
  let s1 = Engine.Session.create ~cache_mb:16 ~disk_dir:dir () in
  let l1 = Engine.Session.link s1 (Engine.Session.compile s1 profile0 tp) in
  let o1 = run1 s1 l1 "A" in
  (* fresh session, same directory: in-memory caches are cold but the
     disk layer serves the compiled unit and the observation *)
  let s2 = Engine.Session.create ~cache_mb:16 ~disk_dir:dir () in
  let l2 = Engine.Session.link s2 (Engine.Session.compile s2 profile0 tp) in
  let o2 = run1 s2 l2 "A" in
  check_bool "observation identical across restart" true (o1 = o2);
  (match (Engine.Session.stats s2).Engine.Session.disk with
  | None -> Alcotest.fail "expected disk stats"
  | Some d ->
    check_bool "nonzero disk hits after restart" true
      (d.Engine.Session.disk_hits > 0));
  (* stored observations, duplicates included, match fresh executions *)
  let inputs = [| "A"; "B"; "A" |] in
  let obs = Engine.Session.run_batch s2 l2 ~inputs ~fuel:100_000 in
  let fresh input =
    let r =
      Cdvm.Exec.run_linked
        ~config:{ Cdvm.Exec.default_config with Cdvm.Exec.input; fuel = 100_000 }
        (Engine.Session.image l2)
    in
    {
      Engine.Session.obs_stdout = r.Cdvm.Exec.stdout;
      obs_status = r.Cdvm.Exec.status;
      obs_fuel = r.Cdvm.Exec.fuel_used;
    }
  in
  check_bool "batch equals fresh executions" true
    (obs.(0) = o2 && Array.for_all2 (fun o i -> o = fresh i) obs inputs)

(* --- QCheck cross-validation properties --- *)

(* same token soup the front-end fuzz and oracle suites use *)
let gen_soup =
  let open QCheck.Gen in
  let token =
    oneofl
      [
        "int "; "long "; "double "; "if"; "else"; "while"; "return "; "break";
        "print"; "("; ")"; "{"; "}"; "["; "]"; ";"; ","; "+"; "-"; "*"; "/";
        "%"; "="; "=="; "<"; ">"; "&&"; "||"; "&"; "|"; "^"; "<<"; ">>"; "!";
        "~"; "?"; ":"; "x"; "y"; "foo"; "main"; "0"; "1"; "42"; "2147483647";
        "0x1F"; "7L"; "1.5"; "\"str\""; "'c'"; "__LINE__"; "static "; "for";
        "getchar()"; "malloc"; "free"; " "; "\n"; "//c\n"; "/*c*/";
      ]
  in
  let* n = int_range 0 40 in
  let* parts = list_repeat n token in
  return (String.concat "" parts)

let prop_cached_session_matches_disabled =
  QCheck.Test.make
    ~name:"cached session verdicts = caching-disabled session on random programs"
    ~count:60 (QCheck.make gen_soup)
    (fun soup ->
      let src = "int main() { " ^ soup ^ " ; return 0; }" in
      match Minic.frontend_of_source src with
      | Error _ -> true
      | Ok tp ->
        let cached = Engine.Session.create ~cache_mb:32 () in
        let disabled = Engine.Session.create ~cache_mb:0 () in
        let oc =
          Compdiff.Oracle.create ~session:cached ~fuel:20_000 ~max_fuel:80_000 tp
        in
        let od =
          Compdiff.Oracle.create ~session:disabled ~fuel:20_000 ~max_fuel:80_000
            tp
        in
        List.for_all
          (fun input ->
            let vc = Compdiff.Oracle.check oc ~input in
            (* same input twice: the replay must not change the verdict *)
            vc = Compdiff.Oracle.check od ~input
            && vc = Compdiff.Oracle.check oc ~input)
          [ ""; "A"; "zz" ])

(* random behaviour partitions: n implementations, values in 0..n-1 *)
let gen_partitions =
  let open QCheck.Gen in
  let* n = int_range 2 6 in
  let* nbugs = int_range 0 8 in
  let* parts =
    list_repeat nbugs (array_repeat n (int_range 0 (n - 1)))
  in
  return (n, parts)

let prop_study_matches_reference =
  QCheck.Test.make
    ~name:"partition-cached study = per-subset recomputation reference"
    ~count:200
    (QCheck.make gen_partitions)
    (fun (n, partitions) ->
      Compdiff.Subset.study ~n partitions
      = Compdiff.Subset.study_reference ~n partitions)

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "engine.lru",
      [
        tc "find_or_compute" test_lru_basics;
        tc "LRU eviction order" test_lru_eviction_lru_order;
      ] );
    ( "engine.session",
      [
        tc "unit cache" test_unit_cache_hit;
        tc "image cache + observation store" test_image_cache_and_obs_store;
        tc "disabled = passthrough" test_disabled_session_is_passthrough;
        tc "oracles share compiles" test_oracle_shares_session_compiles;
        tc "oracle replay hits the store" test_oracle_replay_hits_obs_store;
      ] );
    ( "engine.diskcache",
      [
        tc "round trip across handles" test_diskcache_roundtrip;
        tc "truncated/corrupt entries are misses" test_diskcache_corruption_is_miss;
        tc "running byte/entry counters" test_diskcache_running_counters;
        tc "GC honors the size cap" test_diskcache_gc_honors_cap;
        tc "session restart warm via disk" test_session_disk_restart;
      ] );
    ( "engine.cross_validation",
      [
        QCheck_alcotest.to_alcotest prop_cached_session_matches_disabled;
        QCheck_alcotest.to_alcotest prop_study_matches_reference;
      ] );
  ]
