(* The springfs benchmark: one pass of a workload — set-up, a measured
   phase of closed-loop clients, and the end-of-run checks against the
   benchmark's own model — printed as one JSON record.

     main.exe --workload warm-rw|sync-write|namespace|dfs|all [--seed N] [--trace]
     main.exe --selftest

   [--trace] runs the measured phase inside [Sp_trace.with_tracing] and
   adds the per-layer self and queue times.  [--selftest] shows that no
   check is vacuous: each workload's verdict must fail when its model is
   changed in one place, and pass on a second seed. *)

let workloads =
  [
    ("warm-rw", Warm_rw.run, Harness.Flip_byte);
    ("sync-write", Sync_write.run, Harness.Advance_synced);
    ("namespace", Namespace.run, Harness.Add_name);
    ("dfs", Dfs.run, Harness.Flip_byte);
  ]

let default_seed = 7
let second_seed = 99

let pass ?quick ?mutation ~seed ~traced (name, run, _) =
  let h = Harness.create ?quick ?mutation ~workload:name ~seed ~traced () in
  run h;
  h

let selftest () =
  let ok = ref true in
  List.iter
    (fun ((name, _, mutation) as w) ->
      let clean = pass ~quick:true ~seed:second_seed ~traced:false w in
      let mutated = pass ~quick:true ~mutation ~seed:second_seed ~traced:false w in
      let verdict h = h.Harness.n_problems = 0 in
      Printf.printf "%-10s seed %d: clean run %s, model changed in one place %s\n" name
        second_seed
        (if verdict clean then "passes" else "FAILS")
        (if verdict mutated then "PASSES" else "fails");
      List.iter (fun p -> Printf.printf "  %s\n" p) (List.rev clean.Harness.problems);
      if (not (verdict clean)) || verdict mutated then ok := false)
    workloads;
  if not !ok then exit 1

let () =
  let workload = ref "" and seed = ref default_seed and traced = ref false in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME warm-rw, sync-write, namespace, dfs or all");
      ("--seed", Arg.Set_int seed, Printf.sprintf "N input seed (default %d)" default_seed);
      ("--trace", Arg.Set traced, " trace the measured phase (per-layer self/queue times)");
      ("--selftest", Arg.Set self, " check that every workload's verdict can fail");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--trace] | --selftest";
  if !self then selftest ()
  else
    let chosen =
      if !workload = "all" then workloads
      else List.filter (fun (n, _, _) -> n = !workload) workloads
    in
    if chosen = [] then begin
      prerr_endline ("springbench: unknown workload " ^ !workload);
      exit 2
    end;
    List.iter
      (fun w -> print_endline (Report.record (pass ~seed:!seed ~traced:!traced w)))
      chosen
