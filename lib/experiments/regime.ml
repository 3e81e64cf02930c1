module Trace = Octo_sim.Trace
module Invariant = Octopus.Invariant

type value = Int of int | Float of float

type outcome = {
  trace : Trace.t;
  checker : Invariant.t;
  lookups_done : int;
  lookups_converged : int;
  fields : (string * value) list;
  conditions : (string * bool) list;
}

type params = {
  n : int;
  duration : float;
  seed : int;
  queries : int;
  cache : bool;
  chaos : bool;
}

type t = {
  suite : string;
  name : string;
  floor : float option;
  min_n : int;
  default_n : int;
  default_duration : float;
  body : params -> outcome;
}

let id r = r.suite ^ "/" ^ r.name

(* ------------------------------------------------------------------ *)
(* Running a body *)

type probe = {
  sink : Trace.t;
  mutable attached : Invariant.t option;
  mutable done_ : int;
  mutable converged : int;
}

let start ?grace ~capacity () =
  let sink = Trace.create ~capacity () in
  Trace.install sink;
  let p = { sink; attached = None; done_ = 0; converged = 0 } in
  let attach w =
    let c = Invariant.create ?grace w in
    Invariant.attach c sink;
    p.attached <- Some c;
    Trace.subscribe sink (fun ev ->
        match ev.Trace.data with
        | Trace.Lookup_done { owner_addr; _ } ->
          p.done_ <- p.done_ + 1;
          if owner_addr >= 0 then p.converged <- p.converged + 1
        | _ -> ())
  in
  (p, attach)

let checker p =
  match p.attached with
  | Some c -> c
  | None -> invalid_arg "Regime.checker: the attach hook has not run"

(* Every regime closes its disturbance (fault window, campaign, churn)
   well before the end of the run, so by now maintenance has had the
   tail to re-knit the ring; the eclipse watch can only flag where
   colluders exist. *)
let finish p =
  let c = checker p in
  Invariant.check_convergence c;
  ignore (Invariant.check_eclipse ~allowed:0 c);
  Invariant.finish c;
  Trace.uninstall ();
  {
    trace = p.sink;
    checker = c;
    lookups_done = p.done_;
    lookups_converged = p.converged;
    fields = [];
    conditions = [];
  }

(* ------------------------------------------------------------------ *)
(* Gating *)

let success_rate o =
  if o.lookups_done = 0 then 0.0
  else float_of_int o.lookups_converged /. float_of_int o.lookups_done

let failures r o =
  let floor =
    match r.floor with
    | Some f when o.lookups_done = 0 || success_rate o < f ->
      [ "success rate below the documented floor" ]
    | Some _ | None -> []
  in
  floor @ List.filter_map (fun (what, ok) -> if ok then None else Some what) o.conditions

let passed r o = match failures r o with [] -> true | _ :: _ -> false

let int_field o name =
  match List.assoc name o.fields with Int v -> v | Float _ -> raise Not_found

let float_field o name =
  match List.assoc name o.fields with Float v -> v | Int _ -> raise Not_found

(* ------------------------------------------------------------------ *)
(* Reporting *)

let text_value = function Int v -> string_of_int v | Float v -> Printf.sprintf "%.6g" v

let render ~check r o =
  let b = Buffer.create 512 in
  let name = id r in
  Printf.bprintf b "%s lookups %d/%d ok (%.1f%%, %s)  trace events %d (%d retained)\n" name
    o.lookups_converged o.lookups_done
    (100. *. success_rate o)
    (match r.floor with
    | Some f -> Printf.sprintf "floor %.0f%%" (100. *. f)
    | None -> "no floor")
    (Trace.seen o.trace)
    (List.length (Trace.events o.trace));
  List.iter (fun (k, v) -> Printf.bprintf b "%s   %s %s\n" name k (text_value v)) o.fields;
  List.iter (fun why -> Printf.bprintf b "%s FAILED: %s\n" name why) (failures r o);
  if check then Buffer.add_string b (Format.asprintf "%t" (Invariant.report o.checker));
  Buffer.contents b

(* JSON has no NaN/inf literals; an empty sketch reports null. *)
let json_float f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let json_value = function Int v -> string_of_int v | Float v -> json_float v

let json_object pairs =
  "{ " ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) pairs) ^ " }"

let json_run (r, p, o) =
  json_object
    [
      ("regime", Printf.sprintf "%S" (id r));
      ( "params",
        json_object
          [
            ("n", string_of_int p.n);
            ("seed", string_of_int p.seed);
            ("duration_s", json_float p.duration);
            ("queries", string_of_int p.queries);
            ("cache", string_of_bool p.cache);
            ("chaos", string_of_bool p.chaos);
          ] );
      ("floor", match r.floor with Some f -> json_float f | None -> "null");
      ("lookups_done", string_of_int o.lookups_done);
      ("lookups_converged", string_of_int o.lookups_converged);
      ("success_rate", json_float (success_rate o));
      ("passed", string_of_bool (passed r o));
      ("violations", string_of_int (List.length (Invariant.violations o.checker)));
      ("trace_events", string_of_int (Trace.seen o.trace));
      ("fields", json_object (List.map (fun (k, v) -> (k, json_value v)) o.fields));
      ( "conditions",
        json_object (List.map (fun (k, ok) -> (k, string_of_bool ok)) o.conditions) );
    ]

let json runs =
  Printf.sprintf "{\n  \"schema\": \"octopus-run/v1\",\n  \"runs\": [\n    %s\n  ]\n}\n"
    (String.concat ",\n    " (List.map json_run runs))
