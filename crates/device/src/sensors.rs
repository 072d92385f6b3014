//! The smart beehive's sensor suite and its data volumes.
//!
//! The deployed hive collects, per routine: three simultaneous 10-second
//! audio samples from USB microphones (20 Hz–16 kHz), five 800×600 images
//! spread over five seconds, one temperature/humidity reading (SHT31) and a
//! gas reading.

use pb_units::Seconds;

/// A kind of sensor in the suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SensorKind {
    /// USB microphone, 22 050 Hz, 16-bit mono.
    Microphone,
    /// Raspberry Pi camera module 2, 800×600 RGB (stored as JPEG ≈ 10:1).
    Camera,
    /// SHT31 temperature + humidity sensor.
    TemperatureHumidity,
    /// Gas sensor.
    Gas,
    /// ±5 A current sensor on the energy node.
    Current,
}

/// One sensor's acquisition plan in a routine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Acquisition {
    /// The sensor kind.
    pub kind: SensorKind,
    /// Number of samples/captures per routine.
    pub count: usize,
    /// Bytes produced per sample/capture.
    pub bytes_each: usize,
    /// Wall-clock time to acquire all captures.
    pub duration: Seconds,
}

impl Acquisition {
    /// Total bytes produced per routine.
    pub fn total_bytes(&self) -> usize {
        self.count * self.bytes_each
    }
}

/// The full sensor suite of a smart beehive.
#[derive(Clone, Debug)]
pub struct SensorSuite {
    acquisitions: Vec<Acquisition>,
}

impl SensorSuite {
    /// The deployed suite: 3 × 10 s audio, 5 images, SHT31, gas.
    pub fn deployed() -> Self {
        let audio_bytes = (10.0 * 22_050.0) as usize * 2; // 10 s, 16-bit mono
        let image_bytes = 800 * 600 * 3 / 10; // JPEG ≈ 10:1 over raw RGB
        SensorSuite {
            acquisitions: vec![
                Acquisition {
                    kind: SensorKind::Microphone,
                    count: 3,
                    bytes_each: audio_bytes,
                    duration: Seconds(10.0), // recorded simultaneously
                },
                Acquisition {
                    kind: SensorKind::Camera,
                    count: 5,
                    bytes_each: image_bytes,
                    duration: Seconds(5.0), // "spread over five seconds"
                },
                Acquisition {
                    kind: SensorKind::TemperatureHumidity,
                    count: 1,
                    bytes_each: 8,
                    duration: Seconds(0.1),
                },
                Acquisition {
                    kind: SensorKind::Gas,
                    count: 1,
                    bytes_each: 4,
                    duration: Seconds(0.1),
                },
            ],
        }
    }

    /// All acquisitions.
    pub fn acquisitions(&self) -> &[Acquisition] {
        &self.acquisitions
    }

    /// The acquisition plan for one sensor kind, if present.
    pub fn acquisition(&self, kind: SensorKind) -> Option<&Acquisition> {
        self.acquisitions.iter().find(|a| a.kind == kind)
    }

    /// Total payload bytes per routine across all sensors.
    pub fn total_bytes(&self) -> usize {
        self.acquisitions.iter().map(Acquisition::total_bytes).sum()
    }

    /// Payload bytes of the audio channel only — what the edge+cloud
    /// scenario uploads for queen detection ("Send audio").
    pub fn audio_bytes(&self) -> usize {
        self.acquisition(SensorKind::Microphone).map_or(0, Acquisition::total_bytes)
    }

    /// Wall-clock acquisition time (sensors read sequentially except the
    /// simultaneous microphones).
    pub fn acquisition_time(&self) -> Seconds {
        self.acquisitions.iter().map(|a| a.duration).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployed_suite_contents() {
        let s = SensorSuite::deployed();
        assert_eq!(s.acquisitions().len(), 4);
        assert!(s.acquisition(SensorKind::Microphone).is_some());
        assert!(s.acquisition(SensorKind::Current).is_none());
    }

    #[test]
    fn audio_volume_matches_three_ten_second_clips() {
        let s = SensorSuite::deployed();
        // 3 clips × 10 s × 22 050 Hz × 2 B = 1 323 000 B.
        assert_eq!(s.audio_bytes(), 3 * 441_000);
    }

    #[test]
    fn total_bytes_include_all_sensors() {
        let s = SensorSuite::deployed();
        let expected = 3 * 441_000 + 5 * (800 * 600 * 3 / 10) + 8 + 4;
        assert_eq!(s.total_bytes(), expected);
        // Payload is on the order of 2 MB — transferable in ~15 s over the
        // measured effective Wi-Fi throughput.
        assert!(s.total_bytes() > 1_500_000 && s.total_bytes() < 3_000_000);
    }

    #[test]
    fn acquisition_time_is_seconds_scale() {
        let s = SensorSuite::deployed();
        let t = s.acquisition_time();
        assert!(t > Seconds(15.0) && t < Seconds(16.0), "time {t}");
    }

    #[test]
    fn per_acquisition_totals() {
        let a = Acquisition {
            kind: SensorKind::Camera,
            count: 5,
            bytes_each: 100,
            duration: Seconds(5.0),
        };
        assert_eq!(a.total_bytes(), 500);
    }
}
