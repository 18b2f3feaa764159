//! Simulated devices: camera, GUI display subsystem, and network.
//!
//! These are the `DEV` and `GUI` storage classes of the paper's data-flow
//! model (Fig. 8/9). The camera feeds data-loading APIs
//! (`VideoCapture::read` uses `ioctl`/`select`), the display backs
//! visualizing APIs (`imshow` talks to a GUI socket), and the network log
//! is how the evaluation's exfiltration analysis observes whether an
//! attack managed to `send()` stolen bytes off-box.

use crate::commit::{fold, fold_bytes, hash_str, mix, FINGERPRINT_SEED};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Kinds of device a file descriptor can point at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// A frame-producing camera (`/dev/video0`).
    Camera,
    /// The GUI subsystem socket (X11/Wayland stand-in).
    GuiSocket,
    /// An outbound network socket.
    NetSocket,
    /// An eventfd used for agent wakeups.
    Event,
}

/// Identifier of a GUI window created by a visualizing API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowId(pub u32);

impl fmt::Display for WindowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "win{}", self.0)
    }
}

/// Deterministic camera: produces seeded pseudo-random frames.
#[derive(Debug)]
pub struct Camera {
    rng: StdRng,
    /// Bytes per frame. The generator stream is fully determined by the
    /// seed and the frames served, so the kernel digest covers the
    /// camera with this and [`Camera::frames_served`].
    pub(crate) frame_len: usize,
    frames_served: u64,
}

impl Camera {
    /// A camera producing `frame_len`-byte frames from `seed`.
    pub fn new(seed: u64, frame_len: usize) -> Camera {
        Camera {
            rng: StdRng::seed_from_u64(seed),
            frame_len,
            frames_served: 0,
        }
    }

    /// Grabs the next frame.
    pub fn capture(&mut self) -> Vec<u8> {
        self.frames_served += 1;
        (0..self.frame_len).map(|_| self.rng.gen()).collect()
    }

    /// Number of frames handed out so far.
    pub fn frames_served(&self) -> u64 {
        self.frames_served
    }
}

/// One GUI window's retained state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// Title passed at creation.
    pub title: String,
    /// Last blitted image bytes (length only matters for costing).
    pub last_frame_len: usize,
    /// Number of times content was presented.
    pub presents: u64,
}

/// The GUI display subsystem: windows, blits, and input key queue.
///
/// Visualizing APIs `connect()` to this once (the paper's
/// "connect only during first execution" observation) and then draw.
#[derive(Debug, Default)]
pub struct Display {
    windows: Vec<Option<Window>>,
    key_queue: Vec<u8>,
    /// Total bytes blitted to the screen — visible output volume.
    pub blitted_bytes: u64,
    connected: bool,
}

impl Display {
    /// A fresh display with no windows.
    pub fn new() -> Display {
        Display::default()
    }

    /// Marks the GUI socket connected (first `connect`).
    pub fn connect(&mut self) {
        self.connected = true;
    }

    /// True once a visualizing API has connected.
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Finds a live window by title.
    pub fn find_window(&self, title: &str) -> Option<WindowId> {
        self.windows
            .iter()
            .enumerate()
            .find(|(_, w)| w.as_ref().is_some_and(|w| w.title == title))
            .map(|(i, _)| WindowId(i as u32))
    }

    /// Titles of all live windows, in creation order.
    pub fn window_titles(&self) -> Vec<String> {
        self.windows
            .iter()
            .filter_map(|w| w.as_ref().map(|w| w.title.clone()))
            .collect()
    }

    /// Creates a window and returns its id.
    pub fn create_window(&mut self, title: &str) -> WindowId {
        let id = WindowId(self.windows.len() as u32);
        self.windows.push(Some(Window {
            title: title.to_owned(),
            last_frame_len: 0,
            presents: 0,
        }));
        id
    }

    /// Presents `frame_len` bytes to `win`.
    pub fn present(&mut self, win: WindowId, frame_len: usize) -> bool {
        match self
            .windows
            .get_mut(win.0 as usize)
            .and_then(|w| w.as_mut())
        {
            Some(w) => {
                w.last_frame_len = frame_len;
                w.presents += 1;
                self.blitted_bytes += frame_len as u64;
                true
            }
            None => false,
        }
    }

    /// Destroys one window.
    pub fn destroy_window(&mut self, win: WindowId) -> bool {
        match self.windows.get_mut(win.0 as usize) {
            Some(slot @ Some(_)) => {
                *slot = None;
                true
            }
            _ => false,
        }
    }

    /// Destroys every window (`destroyAllWindows`).
    pub fn destroy_all(&mut self) {
        for w in &mut self.windows {
            *w = None;
        }
    }

    /// Live window count.
    pub fn window_count(&self) -> usize {
        self.windows.iter().filter(|w| w.is_some()).count()
    }

    /// Looks up a live window.
    pub fn window(&self, win: WindowId) -> Option<&Window> {
        self.windows.get(win.0 as usize).and_then(|w| w.as_ref())
    }

    /// Queues a synthetic key press (workload input).
    pub fn push_key(&mut self, key: u8) {
        self.key_queue.push(key);
    }

    /// Polls one key press, if any (`pollKey`).
    pub fn poll_key(&mut self) -> Option<u8> {
        if self.key_queue.is_empty() {
            None
        } else {
            Some(self.key_queue.remove(0))
        }
    }

    /// Digest of the whole display state: windows (live and destroyed
    /// slots), pending keys, blit volume, and connection flag, folded a
    /// word at a time. Window counts are tiny, so this walks rather than
    /// tracking incrementally.
    pub fn fingerprint(&self) -> u64 {
        let head = [self.blitted_bytes, u64::from(self.connected)];
        let mut h = fold(
            head.into_iter().fold(FINGERPRINT_SEED, fold),
            self.windows.len() as u64,
        );
        for w in &self.windows {
            h = match w {
                None => fold(h, 0),
                Some(w) => [1, hash_str(&w.title), w.last_frame_len as u64, w.presents]
                    .into_iter()
                    .fold(h, fold),
            };
        }
        let keys = self.key_queue.iter().map(|&k| u64::from(k));
        keys.fold(fold(h, self.key_queue.len() as u64), fold)
    }
}

/// One observed outbound transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetSend {
    /// Sending process (kernel-assigned raw pid value).
    pub pid: u32,
    /// Destination string from `connect`/`sendto`.
    pub dest: String,
    /// Payload bytes.
    pub bytes: Vec<u8>,
}

/// Record of all network egress — the exfiltration oracle.
///
/// The §5.3 data-exfiltration analysis asks one question: did any stolen
/// bytes reach an attacker-controlled destination? This log answers it.
#[derive(Debug, Default)]
pub struct NetworkLog {
    sends: Vec<NetSend>,
    fp: u64,
}

impl NetworkLog {
    /// An empty log.
    pub fn new() -> NetworkLog {
        NetworkLog::default()
    }

    /// Records an outbound transmission.
    pub fn record(&mut self, pid: u32, dest: &str, bytes: &[u8]) {
        self.fp = fold_bytes(
            mix(mix(mix(self.fp, 1), u64::from(pid)), hash_str(dest)),
            bytes,
        );
        self.sends.push(NetSend {
            pid,
            dest: dest.to_owned(),
            bytes: bytes.to_vec(),
        });
    }

    /// Incremental fingerprint over the egress history (including
    /// clears), feeding the kernel state digest.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Every transmission so far.
    pub fn sends(&self) -> &[NetSend] {
        &self.sends
    }

    /// Total bytes sent to destinations containing `needle`.
    pub fn bytes_to(&self, needle: &str) -> u64 {
        self.sends
            .iter()
            .filter(|s| s.dest.contains(needle))
            .map(|s| s.bytes.len() as u64)
            .sum()
    }

    /// True when a payload containing `marker` left the box.
    pub fn leaked(&self, marker: &[u8]) -> bool {
        self.sends
            .iter()
            .any(|s| s.bytes.windows(marker.len().max(1)).any(|w| w == marker))
    }

    /// Clears the log (between experiments).
    pub fn clear(&mut self) {
        self.fp = mix(self.fp, 2);
        self.sends.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn camera_is_deterministic_per_seed() {
        let mut a = Camera::new(42, 16);
        let mut b = Camera::new(42, 16);
        assert_eq!(a.capture(), b.capture());
        assert_eq!(a.frames_served(), 1);
        let mut c = Camera::new(43, 16);
        assert_ne!(a.capture(), c.capture());
    }

    #[test]
    fn display_window_lifecycle() {
        let mut d = Display::new();
        let w = d.create_window("preview");
        assert_eq!(d.window_count(), 1);
        assert!(d.present(w, 100));
        assert_eq!(d.window(w).unwrap().presents, 1);
        assert_eq!(d.blitted_bytes, 100);
        assert!(d.destroy_window(w));
        assert!(!d.present(w, 1));
        assert_eq!(d.window_count(), 0);
    }

    #[test]
    fn display_destroy_all_and_keys() {
        let mut d = Display::new();
        d.create_window("a");
        d.create_window("b");
        d.destroy_all();
        assert_eq!(d.window_count(), 0);
        d.push_key(b's');
        d.push_key(b'q');
        assert_eq!(d.poll_key(), Some(b's'));
        assert_eq!(d.poll_key(), Some(b'q'));
        assert_eq!(d.poll_key(), None);
    }

    #[test]
    fn network_log_detects_leaks() {
        let mut n = NetworkLog::new();
        n.record(3, "attacker.example:4444", b"SECRET-TEMPLATE");
        assert!(n.leaked(b"SECRET"));
        assert!(!n.leaked(b"missing"));
        assert_eq!(n.bytes_to("attacker"), 15);
        n.clear();
        assert!(n.sends().is_empty());
    }
}
