//! Property tests of the container checksum ([`checksum64`]): on
//! arbitrary inputs up to 300 bytes (every stripe/tail split), each
//! single-bit flip, dropping the last byte and appending a zero byte
//! must all change the checksum. The last two differ from the input
//! only in length, so they pin that the length is folded in.

use gcm_serve::container::checksum64;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_single_bit_flip_changes_the_checksum(
        data in proptest::collection::vec(any::<u8>(), 1..300)
    ) {
        let sum = checksum64(&data);
        let mut flipped = data.clone();
        for bit in 0..data.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert_ne!(checksum64(&flipped), sum);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn length_changes_change_the_checksum(
        data in proptest::collection::vec(any::<u8>(), 1..300)
    ) {
        let sum = checksum64(&data);
        prop_assert_ne!(checksum64(&data[..data.len() - 1]), sum);
        let mut longer = data.clone();
        longer.push(0);
        prop_assert_ne!(checksum64(&longer), sum);
    }
}
