(* One benchmark repetition per process.

     main.exe rep WORKLOAD SEED TRACED
       runs one fixed-size instance of WORKLOAD at SEED (TRACED = 0 or 1)
       and prints one JSON object: timings, peak heap, ops attempted and
       failed, named checks, deterministic figures, simulated outcomes and
       per-layer figures.
     main.exe preset WORKLOAD SEED
       runs the library preset the workload re-drives, at the same seed
       and size, and prints its deterministic counts.

   perfbench/run.py drives both; see perfbench/README.md. *)

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let nums l = obj (List.map (fun (k, v) -> (k, num v)) l)
let bools l = obj (List.map (fun (k, b) -> (k, if b then "true" else "false")) l)

let usage () =
  prerr_endline "usage: main.exe rep WORKLOAD SEED (0|1) | preset WORKLOAD SEED";
  prerr_endline ("workloads: " ^ String.concat ", " Drivers.workloads);
  exit 2

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "rep"; w; seed; traced ] when List.mem w Drivers.workloads ->
    let seed = int_of_string seed and traced = String.equal traced "1" in
    let r = Drivers.run w ~seed ~traced in
    print_endline
      (obj
         [
           ("setup_s", num r.Drivers.setup_s);
           ("run_s", num r.Drivers.run_s);
           ("peak_heap_mb", num (Probe.peak_heap_mb ()));
           ("attempted", string_of_int r.Drivers.attempted);
           ("failed", string_of_int r.Drivers.failed);
           ("checks", bools r.Drivers.checks);
           ("det", nums r.Drivers.det);
           ("outcomes", nums r.Drivers.outcomes);
           ("layers", nums r.Drivers.layers);
         ])
  | [ "preset"; w; seed ] when List.mem w Drivers.workloads ->
    print_endline (nums (Drivers.preset w ~seed:(int_of_string seed)))
  | _ -> usage ()
