(* namespace: 16 clients on one indexed directory of one-page files.  The
   directory holds several times more files than the name cache holds
   names and than the VMM budget holds pages, so the [Sp_dir] index, the
   name cache, inode/bitmap allocation and VMM eviction do the work; the
   data path moves one page per operation.

   Clients create files with a one-page body, remove their own earlier
   files, open files by name through the name cache (mostly from a hot
   set) and read their bodies, read the directory in cursor batches, and
   stat files.  At the end a full streamed listing must equal the model's
   name set, every live body must match, and fsck must be clean. *)

module H = Harness
module F = Sp_core.File
module S = Sp_core.Stackable
module Rng = Sp_fault.Rng
module Sname = Sp_naming.Sname

let clients = 16
let rounds = 30
let entries = 1_024
let hot = 192
let cache_capacity = 256
let vmm_pages = 128
let readdir_batch = 64
let arrival_gap_ns = 20_000

let dir = Sname.of_string "d"
let path name = Sname.of_string ("d/" ^ name)
let setup_name i = Printf.sprintf "f%05d" i

(* A one-page body naming its file id. *)
let body id =
  let b = Bytes.create H.ps in
  for s = 0 to (H.ps / H.kb) - 1 do
    Bytes.blit (H.record ~file:id ~slot:s ~version:0) 0 b (s * H.kb) H.kb
  done;
  b

let run h =
  H.in_world "n" @@ fun tag ->
  let disk = Sp_blockdev.Disk.create ~label:(tag ^ "-disk") ~blocks:16_384 () in
  let vmm = Sp_vm.Vmm.create ~node:tag ("vmm-" ^ tag) in
  (* The model: live name -> the id its body was made from. *)
  let live : (string, int) Hashtbl.t = Hashtbl.create (2 * entries) in
  let fs =
    H.setup h (fun () ->
        (* Each round leaves one more file per client: room for all of them. *)
        Sp_sfs.Disk_layer.mkfs ~inodes:(entries + (clients * (rounds + 2)) + 64) disk;
        let fs =
          Sp_coherency.Spring_sfs.make_split ~node:tag ~vmm ~name:tag ~same_domain:false
            disk
        in
        Sp_vm.Vmm.set_capacity vmm ~pages:(Some vmm_pages);
        S.mkdir fs dir;
        for i = 0 to entries - 1 do
          let f = H.setup_call h Create (fun () -> S.create fs (path (setup_name i))) in
          ignore (H.setup_call h Write (fun () -> F.write f ~pos:0 (body i)));
          Hashtbl.replace live (setup_name i) i
        done;
        S.sync fs;
        fs)
  in
  let cache = Sp_naming.Name_cache.create ~capacity:cache_capacity () in
  (* Each client's own files, oldest first.  A round creates three and
     removes two, so the two every client starts with keep a remove from
     ever finding none. *)
  let mine = Array.init clients (fun _ -> Queue.create ()) in
  let made = Array.make clients 0 in
  let create k =
    made.(k) <- made.(k) + 1;
    let id = ((k + 1) * 1_000_000) + made.(k) in
    let name = Printf.sprintf "n%02d_%05d" k made.(k) in
    let f = H.call h Create (fun () -> S.create fs (path name)) in
    ignore (H.call h Write (fun () -> F.write f ~pos:0 (body id)));
    H.wrote h H.ps;
    Hashtbl.replace live name id;
    Queue.push name mine.(k)
  in
  (* Warm the name cache and the page budget with the hot set. *)
  H.setup h (fun () ->
      for k = 0 to clients - 1 do
        create k;
        create k
      done;
      for i = 0 to hot - 1 do
        ignore (F.read (S.open_file_cached cache fs (path (setup_name i))) ~pos:0 ~len:H.ps)
      done);
  let world = { H.no_world with disks = [ disk ]; vmms = [ vmm ]; name_cache = Some cache } in
  let client k () =
    let rng = Rng.create ((h.H.seed * 7919) + k) in
    let cookie = ref 0 in
    Sp_sched.sleep (k * arrival_gap_ns);
    (* Opens mostly hit the hot set; one in five ranges over the whole
       setup population, so the name cache works past its capacity. *)
    let pick () =
      setup_name (if Rng.int rng 5 = 0 then Rng.int rng entries else Rng.int rng hot)
    in
    (* 3 creates, 2 removes, 8 open-and-reads, 3 readdir batches, 4
       open-and-stats. *)
    H.rounds h ~rounds
      [ `C; `O; `D; `O; `T; `O; `X; `O; `C; `T; `O; `D; `O; `T; `X; `O; `C; `O; `D; `T ]
      (function
        | `C -> create k
        | `X ->
            let name = Queue.take mine.(k) in
            H.call h Remove (fun () -> S.remove fs (path name));
            Hashtbl.remove live name
        | `O ->
            let name = pick () in
            let f = H.call h Open (fun () -> S.open_file_cached cache fs (path name)) in
            let got = H.call h Read (fun () -> F.read f ~pos:0 ~len:H.ps) in
            H.check h
              (Bytes.equal got (body (Hashtbl.find live name)))
              (fun () -> Printf.sprintf "%s read wrong bytes" name)
        | `D -> (
            let names, next =
              H.call h Readdir (fun () -> S.readdir fs dir ~cookie:!cookie ~limit:readdir_batch)
            in
            H.check h
              (List.for_all (fun n -> String.length n = 6 || String.length n = 9) names)
              (fun () -> "readdir returned a name no client made");
            match next with Some c -> cookie := c | None -> cookie := 0)
        | `T ->
            let name = pick () in
            let f = H.call h Open (fun () -> S.open_file_cached cache fs (path name)) in
            let a = H.call h Stat (fun () -> F.stat f) in
            H.check h (a.Sp_vm.Attr.len = H.ps) (fun () ->
                Printf.sprintf "%s stat length %d" name a.Sp_vm.Attr.len))
  in
  H.measure h world ~seed:h.H.seed (List.init clients client);
  (match h.H.mutation with
  | Some H.Add_name -> Hashtbl.replace live "f99999" 99_999
  | _ -> ());
  S.sync fs;
  let listed = List.sort compare (S.fold_dir fs dir (fun acc n -> n :: acc) []) in
  let expected = List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) live []) in
  H.check h (listed = expected) (fun () ->
      Printf.sprintf "listing has %d names, the model %d" (List.length listed)
        (List.length expected));
  Hashtbl.iter
    (fun name id ->
      match F.read (S.open_file fs (path name)) ~pos:0 ~len:H.ps with
      | got ->
          H.check h (Bytes.equal got (body id)) (fun () ->
              Printf.sprintf "%s body differs from the model" name)
      | exception Sp_core.Fserr.No_such_file _ -> H.problem h (name ^ " is missing"))
    live;
  List.iter
    (fun p -> H.problem h (Format.asprintf "fsck: %a" Sp_sfs.Fsck.pp_problem p))
    (Sp_sfs.Fsck.check ~verify_checksums:true disk)
