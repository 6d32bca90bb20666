"""Tests for the camera, LiDAR, and GPS/IMU sensor models."""

import numpy as np
import pytest

from repro.sensors.camera import CameraSensor
from repro.sensors.gps_imu import GpsImuSensor
from repro.sensors.lidar import LidarSensor
from repro.sim.actors import ActorKind
from repro.sim.scenarios import ScenarioVariation, build_scenario


@pytest.fixture
def ds1_snapshot():
    return build_scenario("DS-1", ScenarioVariation.nominal()).world.snapshot()


@pytest.fixture
def ds2_snapshot():
    return build_scenario("DS-2", ScenarioVariation.nominal()).world.snapshot()


class TestCameraSensor:
    def test_sees_lead_vehicle(self, ds1_snapshot):
        frame = CameraSensor().capture(ds1_snapshot)
        assert len(frame.objects) == 1
        assert frame.objects[0].kind is ActorKind.VEHICLE

    def test_distance_measured_from_front_bumper(self, ds1_snapshot):
        frame = CameraSensor().capture(ds1_snapshot)
        ego = ds1_snapshot.ego
        expected = 60.0 - ego.dimensions.length_m / 2.0
        assert frame.objects[0].distance_m == pytest.approx(expected)

    def test_range_limit(self, ds1_snapshot):
        assert len(CameraSensor(max_range_m=20.0).capture(ds1_snapshot).objects) == 0

    def test_objects_sorted_by_distance(self):
        snapshot = build_scenario("DS-5", ScenarioVariation.nominal()).world.snapshot()
        frame = CameraSensor().capture(snapshot)
        distances = [o.distance_m for o in frame.objects]
        assert distances == sorted(distances)

    def test_frame_manipulation_helpers(self, ds1_snapshot):
        frame = CameraSensor().capture(ds1_snapshot)
        target_id = frame.objects[0].actor_id
        assert frame.object_for_actor(target_id) is not None
        removed = frame.without_actor(target_id)
        assert removed.object_for_actor(target_id) is None
        shifted_obj = frame.objects[0]
        replaced = frame.with_replaced_object(shifted_obj)
        assert len(replaced.objects) == len(frame.objects)

    def test_pedestrian_visible_in_ds2(self, ds2_snapshot):
        frame = CameraSensor().capture(ds2_snapshot)
        assert any(o.kind is ActorKind.PEDESTRIAN for o in frame.objects)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            CameraSensor(max_range_m=0.0)


class TestLidarSensor:
    def test_vehicle_detected_at_60m(self, ds1_snapshot):
        scan = LidarSensor(rng=np.random.default_rng(0)).scan(ds1_snapshot)
        assert len(scan.detections) == 1
        assert scan.detections[0].kind is ActorKind.VEHICLE

    def test_pedestrian_range_shorter_than_vehicle_range(self):
        lidar = LidarSensor()
        assert lidar.effective_range(ActorKind.PEDESTRIAN) < lidar.effective_range(
            ActorKind.VEHICLE
        )

    def test_distant_pedestrian_not_detected(self, ds2_snapshot):
        # The DS-2 pedestrian starts ~85 m ahead, beyond the LiDAR pedestrian range.
        scan = LidarSensor(rng=np.random.default_rng(0)).scan(ds2_snapshot)
        assert scan.detection_for_actor(ds2_snapshot.actors[0].actor_id) is None

    def test_position_noise_is_small(self, ds1_snapshot):
        lidar = LidarSensor(position_noise_m=0.05, rng=np.random.default_rng(1))
        scan = lidar.scan(ds1_snapshot)
        expected = 60.0 - ds1_snapshot.ego.dimensions.length_m / 2.0
        assert scan.detections[0].distance_m == pytest.approx(expected, abs=0.5)

    def test_velocity_reported(self, ds1_snapshot):
        scan = LidarSensor(rng=np.random.default_rng(2)).scan(ds1_snapshot)
        detection = scan.detections[0]
        assert detection.longitudinal_speed_mps == pytest.approx(25.0 / 3.6, abs=0.01)
        assert detection.lateral_velocity_mps == 0.0

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            LidarSensor(vehicle_range_m=0.0)
        with pytest.raises(ValueError):
            LidarSensor(position_noise_m=-1.0)


class TestGpsImuSensor:
    def test_speed_estimate_close_to_truth(self, ds1_snapshot):
        sensor = GpsImuSensor(rng=np.random.default_rng(3))
        estimate = sensor.measure(ds1_snapshot)
        assert estimate.speed_mps == pytest.approx(ds1_snapshot.ego.speed, abs=0.3)

    def test_acceleration_estimated_from_successive_measurements(self):
        scenario = build_scenario("DS-1", ScenarioVariation.nominal())
        sensor = GpsImuSensor(position_noise_m=0.0, speed_noise_mps=0.0, rng=np.random.default_rng(4))
        first = sensor.measure(scenario.world.snapshot())
        assert first.acceleration_mps2 == 0.0
        scenario.world.step(1.0 / 15.0, ego_acceleration_mps2=1.5)
        second = sensor.measure(scenario.world.snapshot())
        assert second.acceleration_mps2 == pytest.approx(1.5, abs=0.2)

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            GpsImuSensor(position_noise_m=-0.1)
