let all =
  Tracecheck.regimes @ Chaos_exp.regimes @ Attack_exp.regimes @ Workload.regimes
  @ Scale.regimes

let select name =
  match
    List.filter
      (fun r -> String.equal name r.Regime.suite || String.equal name (Regime.id r))
      all
  with
  | [] -> None
  | rs -> Some rs
