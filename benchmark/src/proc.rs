//! Driving the real `ntadoc` binary: one-shot CLI children (with their peak
//! RSS) and the `serve` daemon behind its Unix socket.

use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Every child runs with two workers: `nproc` is 2 on the driver's host,
/// and a fixed count keeps runs comparable elsewhere.
pub const CHILD_THREADS: &str = "2";

/// A request that takes longer than this counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// File, in the child's working directory, that `reap` reports to.
const REAP_REPORT: &str = "reaped.txt";

/// `benchmark reap <program> <args…>`: run the program in the current
/// directory with inherited stdio, wait for it, and write `<exited 0>
/// <peak RSS KB> <wall ns>` to [`REAP_REPORT`].
///
/// This is how the benchmark learns a CLI child's peak RSS. The kernel
/// starts a child's `ru_maxrss` from the resident size of the process that
/// forked it, so measured from the benchmark itself — tens of MB once the
/// corpus and the oracle are in memory — small children would all read as
/// the benchmark's own size. A process fresh from `exec` is a megabyte or
/// two, well under any `ntadoc` run. The wall time is taken here too, so
/// it covers the child's spawn-to-exit and not this helper's own start-up.
pub fn reap_main(args: &[String]) -> io::Result<()> {
    let (program, rest) =
        args.split_first().ok_or_else(|| io::Error::other("reap needs a program"))?;
    let start = Instant::now();
    let child = Command::new(program).args(rest).spawn()?;
    let mut status = 0i32;
    let mut ru = RUsage { utime: [0; 2], stime: [0; 2], maxrss_kb: 0, rest: [0; 13] };
    // SAFETY: `status` and `ru` are live, writable and sized as Linux's
    // `int` and `struct rusage` (two timevals then fourteen longs) on
    // 64-bit targets; the pid is our own unreaped child, and `child` is
    // never waited on through std afterwards.
    let rc = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    let wall_ns = start.elapsed().as_nanos();
    // WIFEXITED && WEXITSTATUS == 0.
    let ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    fs::write(REAP_REPORT, format!("{} {} {wall_ns}", ok as u8, ru.maxrss_kb.max(0)))
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `out/<name>` afresh (relative to the benchmark's directory,
    /// which is the process's working directory).
    pub fn create(name: &str) -> io::Result<Self> {
        let path = Path::new("out").join(name);
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    pub fn join(&self, rel: &str) -> PathBuf {
        self.0.join(rel)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Build the `ntadoc` bin of this package — the unmodified CLI source —
/// next to the running benchmark and return its path. `cargo run --bin
/// benchmark` builds only the one bin, so the program under test is built
/// here; when it is already fresh this is a no-op. Call it before leaving
/// the directory cargo was started from: `CARGO_TARGET_DIR` may be relative.
pub fn build_ntadoc() -> io::Result<PathBuf> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let built = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "ntadoc",
            "--manifest-path",
            manifest,
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()?;
    let bin = std::env::current_exe()?.with_file_name("ntadoc");
    if built.success() && bin.is_file() {
        Ok(bin)
    } else {
        Err(io::Error::other(format!(
            "could not build {} (the benchmark itself must be a --release build)",
            bin.display()
        )))
    }
}

/// Outcome of one CLI invocation.
pub struct CliRun {
    pub ok: bool,
    pub wall: Duration,
    pub stdout: Vec<u8>,
    pub maxrss_kb: u64,
}

/// Run `ntadoc <args>` with `cwd` as its working directory, so the paths it
/// sees (and stores as file names) do not depend on where the checkout is.
/// It runs under [`reap_main`], which reports its exit, peak RSS and wall
/// time. stderr goes to `cwd/stderr.txt` for diagnosis.
pub fn run_cli(bin: &Path, cwd: &Path, args: &[&str]) -> io::Result<CliRun> {
    let mut reaper = Command::new(std::env::current_exe()?)
        .arg("reap")
        .arg(bin)
        .args(args)
        .current_dir(cwd)
        .env("RAYON_NUM_THREADS", CHILD_THREADS)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(File::create(cwd.join("stderr.txt"))?)
        .spawn()?;
    let mut stdout = Vec::new();
    reaper.stdout.take().expect("piped stdout").read_to_end(&mut stdout)?;
    if !reaper.wait()?.success() {
        let err = fs::read_to_string(cwd.join("stderr.txt")).unwrap_or_default();
        return Err(io::Error::other(format!("could not run ntadoc {}: {err}", args.join(" "))));
    }
    let report = fs::read_to_string(cwd.join(REAP_REPORT))?;
    let fields: Vec<u64> = report.split(' ').filter_map(|f| f.parse().ok()).collect();
    let &[ok, maxrss_kb, wall_ns] = &fields[..] else {
        return Err(io::Error::other(format!("malformed reap report `{report}`")));
    };
    if ok == 0 {
        let err = fs::read_to_string(cwd.join("stderr.txt")).unwrap_or_default();
        eprintln!("ntadoc {} failed: {}", args.join(" "), err.lines().next().unwrap_or(""));
    }
    Ok(CliRun { ok: ok == 1, wall: Duration::from_nanos(wall_ns), stdout, maxrss_kb })
}

/// A running `ntadoc serve`. Killed and reaped on every exit path.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
    /// Spawn → first accepted connection.
    pub ready: Duration,
}

impl Daemon {
    /// Start `ntadoc serve <image> --socket s.sock --cache <cache>` in `cwd`
    /// and wait until it accepts a connection.
    pub fn spawn(bin: &Path, cwd: &Path, image: &str, cache: usize) -> io::Result<Daemon> {
        let start = Instant::now();
        let mut serve = Command::new(bin);
        serve
            .args(["serve", image, "--socket", "s.sock", "--cache", &cache.to_string()])
            .current_dir(cwd)
            .env("RAYON_NUM_THREADS", CHILD_THREADS)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(cwd.join("serve-stderr.txt"))?);
        // `Drop` covers every way out of this program but a signal that
        // kills it; the kernel covers that one.
        // SAFETY: `prctl` is async-signal-safe and touches no memory.
        unsafe {
            serve.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) == 0 {
                    Ok(())
                } else {
                    Err(io::Error::last_os_error())
                }
            });
        }
        let child = serve.spawn()?;
        let mut daemon =
            Daemon { child: Some(child), socket: cwd.join("s.sock"), ready: Duration::ZERO };
        loop {
            // A probe connection that closes at once: the daemon reads EOF
            // and moves on to the next client.
            if UnixStream::connect(&daemon.socket).is_ok() {
                daemon.ready = start.elapsed();
                return Ok(daemon);
            }
            let exited = daemon.child.as_mut().expect("running").try_wait()?.is_some();
            if exited || start.elapsed() > IO_TIMEOUT {
                return Err(io::Error::other("ntadoc serve did not come up"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Ask the daemon to shut down and reap it; returns its peak RSS in KB,
    /// read from `/proc` while it is still alive (`VmHWM` belongs to the
    /// daemon's own address space, whatever the size of the process that
    /// forked it). Every client connection must be closed before this is
    /// called — the daemon serves one connection at a time, to the end.
    pub fn shutdown(mut self) -> io::Result<u64> {
        let pid = self.child.as_ref().expect("running").id();
        let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
        let hwm_kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc/<pid>/status"))?;
        let mut reply = Vec::new();
        request(&self.socket, "{\"op\":\"shutdown\"}", &mut reply)?;
        let mut child = self.child.take().expect("running");
        if child.wait()?.success() {
            Ok(hwm_kb)
        } else {
            Err(io::Error::other("ntadoc serve exited with an error"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = fs::remove_file(&self.socket);
    }
}

/// One request on a connection of its own, exactly as `ntadoc query` does:
/// connect, send the line, read the reply line into `reply` (without the
/// newline), close.
pub fn request(socket: &Path, line: &str, reply: &mut Vec<u8>) -> io::Result<()> {
    let stream = UnixStream::connect(socket)?;
    exchange(&mut BufReader::new(stream), line, reply)
}

/// A connection kept open for several [`exchange`]s.
pub fn connect(socket: &Path) -> io::Result<BufReader<UnixStream>> {
    Ok(BufReader::new(UnixStream::connect(socket)?))
}

/// Send one request line on an open connection and read its reply line.
pub fn exchange(
    conn: &mut BufReader<UnixStream>,
    line: &str,
    reply: &mut Vec<u8>,
) -> io::Result<()> {
    let stream = conn.get_mut();
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    reply.clear();
    conn.read_until(b'\n', reply)?;
    if reply.pop() != Some(b'\n') {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "reply line cut short"));
    }
    Ok(())
}
